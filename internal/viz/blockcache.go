package viz

import "ricsa/internal/grid"

// BlockMeshCache is the per-session dirty-block ROI state: the previous
// frame's per-block meshes plus the block stamps they were extracted under.
// Each frame, Plan stamps the new snapshot and classifies every block:
//
//   - stamp unchanged → the cached mesh is still exact; reuse it;
//   - stamp changed but the isovalue lies outside both the old and new
//     [min, max] → the block holds no surface either way; its (empty)
//     mesh is reused without extraction — min/max culling and dirty
//     tracking compose, so blocks far from the surface never re-extract
//     no matter how much the field churns there;
//   - otherwise the block is dirty and must be re-extracted.
//
// A changed isovalue, block edge, or field geometry invalidates everything
// (the full deterministic re-extract the steering contract requires).
// Assembly always walks blocks in fixed index order, so the composed mesh
// is byte-identical to a from-scratch sequential extraction regardless of
// which blocks were cached or which workers extracted the rest.
//
// Threshold is an optional approximation knob: when positive, a dirty
// block that stayed on the same side of the isovalue and whose min/max
// drifted by at most Threshold keeps its stale mesh instead of
// re-extracting. The default 0 is exact — any content change re-extracts.
//
// A cache belongs to one producer goroutine; none of its methods lock.
type BlockMeshCache struct {
	Threshold float32

	// Reused/Extracted report the last Plan's classification: blocks whose
	// cached mesh was kept vs blocks scheduled for re-extraction. The
	// produce loop drains them into frame telemetry.
	Reused    int
	Extracted int

	blocks []grid.Block
	meshes []Mesh
	// stamps/prev double-buffer the per-block stamp sets so each Plan
	// compares against the previous frame without copying.
	stamps, prev grid.BlockStamps
	dirty        []int

	warm       bool
	iso        float32
	edge       int
	nx, ny, nz int
}

// Len reports the number of blocks in the cached decomposition.
func (c *BlockMeshCache) Len() int { return len(c.blocks) }

// Block returns block i of the cached decomposition (valid after Plan).
func (c *BlockMeshCache) Block(i int) grid.Block { return c.blocks[i] }

// Mesh returns block i's cached mesh for the extractor to fill or the
// assembler to append. The mesh arena persists across frames.
func (c *BlockMeshCache) Mesh(i int) *Mesh { return &c.meshes[i] }

// TakeStats returns and clears the last Plan's reuse/extract counts.
func (c *BlockMeshCache) TakeStats() (reused, extracted int) {
	reused, extracted = c.Reused, c.Extracted
	c.Reused, c.Extracted = 0, 0
	return reused, extracted
}

// Plan stamps the snapshot and returns the indices of blocks that must be
// re-extracted at the isovalue; every other block's cached mesh is exact
// (or, above a positive Threshold, accepted as-is). The returned slice is
// owned by the cache and valid until the next Plan. Steady-state Plan does
// not allocate.
func (c *BlockMeshCache) Plan(f *grid.ScalarField, edge int, iso float32) []int {
	grid.StampBlocks(f, edge, &c.stamps)
	full := !c.warm || c.iso != iso || c.edge != edge ||
		c.nx != f.NX || c.ny != f.NY || c.nz != f.NZ
	c.dirty = c.dirty[:0]

	if full {
		c.blocks = c.stamps.BlocksInto(c.blocks)
		for len(c.meshes) < len(c.blocks) {
			c.meshes = append(c.meshes, Mesh{})
		}
		c.meshes = c.meshes[:len(c.blocks)]
		for i := range c.blocks {
			if c.blocks[i].ContainsIso(iso) {
				c.dirty = append(c.dirty, i)
			} else {
				// Culled: no surface can cross this block, so its mesh is
				// empty by construction.
				c.meshes[i].Reset()
			}
		}
	} else {
		for i := range c.stamps.Stamps {
			cur, old := c.stamps.Stamps[i], c.prev.Stamps[i]
			c.blocks[i].Min, c.blocks[i].Max = cur.Min, cur.Max
			if cur == old {
				continue // content bit-identical: cached mesh exact
			}
			active := cur.ContainsIso(iso)
			wasActive := old.ContainsIso(iso)
			if !active {
				if wasActive {
					// The surface left the block; its mesh is now empty.
					c.meshes[i].Reset()
				}
				continue
			}
			if c.Threshold > 0 && wasActive &&
				abs32(cur.Min-old.Min) <= c.Threshold &&
				abs32(cur.Max-old.Max) <= c.Threshold {
				continue // approximation: drift within tolerance, keep stale mesh
			}
			c.dirty = append(c.dirty, i)
		}
	}

	c.prev, c.stamps = c.stamps, c.prev
	c.warm = true
	c.iso, c.edge = iso, edge
	c.nx, c.ny, c.nz = f.NX, f.NY, f.NZ
	c.Extracted = len(c.dirty)
	c.Reused = len(c.blocks) - c.Extracted
	return c.dirty
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
