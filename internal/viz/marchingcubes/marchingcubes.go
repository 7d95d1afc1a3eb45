// Package marchingcubes extracts isosurfaces from regular scalar fields.
//
// Extraction walks every cell, classifies its eight corners against the
// isovalue, and triangulates the crossing via a Kuhn decomposition of the
// cell into six tetrahedra sharing the main diagonal. The decomposition is
// translation-consistent (shared faces of adjacent cells are split along
// matching diagonals), so the extracted surface is watertight across cell
// boundaries.
//
// For the paper's cost model (Eq. 5), each cell configuration is also
// classified into the 15 canonical marching-cubes cases — the equivalence
// classes of the 256 corner sign patterns under cube rotations and
// above/below complementation. The class tables are derived at package
// initialization from the cube's rotation group rather than transcribed,
// and a test asserts there are exactly 15 classes.
package marchingcubes

import (
	"sync"

	"ricsa/internal/fcp"
	"ricsa/internal/grid"
	"ricsa/internal/viz"
)

// NumCases is the number of canonical marching-cubes cases, including the
// empty one — the paper's "15 cases including the one with no isosurface".
const NumCases = 15

// caseOf maps each of the 256 corner configurations to its canonical case
// index in [0, NumCases).
var caseOf [256]int

// Corner numbering: corner i has lattice offset (i&1, (i>>1)&1, (i>>2)&1).
// rotations holds the 24 orientation-preserving symmetries of the cube as
// corner permutations; built in init from the three axis quarter-turns.
var rotations [][8]int

func init() {
	buildRotations()
	buildCases()
}

// buildRotations generates the cube rotation group from quarter-turns about
// x, y, and z, acting on corner coordinates.
func buildRotations() {
	applyAxis := func(perm [8]int, axis int) [8]int {
		// Map each corner offset through a 90-degree rotation. For axis x:
		// (x,y,z) -> (x, z, 1-y); y: (x,y,z) -> (1-z, y, x);
		// z: (x,y,z) -> (y, 1-x, z).
		var out [8]int
		for c := 0; c < 8; c++ {
			x, y, z := c&1, (c>>1)&1, (c>>2)&1
			var nx, ny, nz int
			switch axis {
			case 0:
				nx, ny, nz = x, z, 1-y
			case 1:
				nx, ny, nz = 1-z, y, x
			default:
				nx, ny, nz = y, 1-x, z
			}
			out[nx|ny<<1|nz<<2] = perm[c]
		}
		return out
	}

	identity := [8]int{0, 1, 2, 3, 4, 5, 6, 7}
	seen := map[[8]int]bool{identity: true}
	queue := [][8]int{identity}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for axis := 0; axis < 3; axis++ {
			q := applyAxis(p, axis)
			if !seen[q] {
				seen[q] = true
				queue = append(queue, q)
			}
		}
	}
	rotations = make([][8]int, 0, len(seen))
	for p := range seen {
		rotations = append(rotations, p)
	}
}

// buildCases assigns a canonical case index to every configuration: the
// orbit representative is the minimum configuration value reachable by any
// rotation of the pattern or its complement; representatives are then
// numbered by increasing value.
func buildCases() {
	permute := func(cfg int, p [8]int) int {
		out := 0
		for c := 0; c < 8; c++ {
			if cfg&(1<<c) != 0 {
				out |= 1 << p[c]
			}
		}
		return out
	}
	rep := make([]int, 256)
	for cfg := 0; cfg < 256; cfg++ {
		best := 255
		for _, p := range rotations {
			a := permute(cfg, p)
			b := a ^ 0xff // complement: swap inside/outside
			if a < best {
				best = a
			}
			if b < best {
				best = b
			}
		}
		rep[cfg] = best
	}
	index := map[int]int{}
	for cfg := 0; cfg < 256; cfg++ {
		r := rep[cfg]
		if _, ok := index[r]; !ok {
			index[r] = len(index)
		}
		caseOf[cfg] = index[r]
	}
}

// CellConfig returns the 8-bit corner configuration of the cell with origin
// (x, y, z): bit i is set when corner i's sample exceeds the isovalue.
func CellConfig(f *grid.ScalarField, x, y, z int, iso float32) uint8 {
	var cfg uint8
	for c := 0; c < 8; c++ {
		cx, cy, cz := x+(c&1), y+((c>>1)&1), z+((c>>2)&1)
		if f.At(cx, cy, cz) > iso {
			cfg |= 1 << c
		}
	}
	return cfg
}

// CanonicalCase maps a configuration to its canonical case in [0, NumCases).
// Case of config 0 (and 255) is the empty case.
func CanonicalCase(cfg uint8) int { return caseOf[cfg] }

// EmptyCase is the canonical index of the no-isosurface configuration.
func EmptyCase() int { return caseOf[0] }

// kuhnTets is the six-tetrahedron decomposition of a cell, all sharing the
// main diagonal corner 0 -> corner 7. Faces between adjacent cells are cut
// along matching diagonals, keeping the global surface watertight.
var kuhnTets = [6][4]int{
	{0, 1, 3, 7},
	{0, 3, 2, 7},
	{0, 2, 6, 7},
	{0, 6, 4, 7},
	{0, 4, 5, 7},
	{0, 5, 1, 7},
}

// ExtractInto extracts the whole field's isosurface into m, truncating it
// first. The mesh's vertex arena is reused across calls, so a frame loop
// that extracts into the same mesh every frame stops allocating once the
// arena has grown to the working-set size.
//
//ricsa:noalloc
func ExtractInto(m *viz.Mesh, f *grid.ScalarField, iso float32) {
	m.Reset()
	b := grid.Block{NX: f.NX - 1, NY: f.NY - 1, NZ: f.NZ - 1}
	ExtractBlockInto(m, f, b, iso)
}

// ExtractBlock extracts the isosurface restricted to the cells of block b.
func ExtractBlock(f *grid.ScalarField, b grid.Block, iso float32) *viz.Mesh {
	m := &viz.Mesh{}
	ExtractBlockInto(m, f, b, iso)
	return m
}

// ExtractBlockInto appends block b's isosurface triangles to an existing
// mesh, letting callers amortize allocations across many blocks (the cost
// calibrator depends on this matching the batch extraction path).
func ExtractBlockInto(m *viz.Mesh, f *grid.ScalarField, b grid.Block, iso float32) {
	var corners [8]viz.Vec3
	var values [8]float32
	data := f.Data
	for z := b.Z0; z < b.Z0+b.NZ; z++ {
		fz0, fz1 := float32(z), float32(z+1)
		for y := b.Y0; y < b.Y0+b.NY; y++ {
			// Row bases for the four lattice rows a cell row touches: the
			// inner loop then indexes with x offsets only, with no per-corner
			// At() arithmetic.
			r00 := data[(z*f.NY+y)*f.NX:]
			r01 := data[(z*f.NY+y+1)*f.NX:]
			r10 := data[((z+1)*f.NY+y)*f.NX:]
			r11 := data[((z+1)*f.NY+y+1)*f.NX:]
			fy0, fy1 := float32(y), float32(y+1)
			for x := b.X0; x < b.X0+b.NX; x++ {
				v0, v1 := r00[x], r00[x+1]
				v2, v3 := r01[x], r01[x+1]
				v4, v5 := r10[x], r10[x+1]
				v6, v7 := r11[x], r11[x+1]
				// A cell whose corners are all on one side of the isovalue
				// emits nothing (marchTet returns for n == 0 and n == 4), so
				// skipping it here leaves the output byte-identical.
				above := v0 > iso
				if (v1 > iso) == above && (v2 > iso) == above &&
					(v3 > iso) == above && (v4 > iso) == above &&
					(v5 > iso) == above && (v6 > iso) == above &&
					(v7 > iso) == above {
					continue
				}
				fx0, fx1 := float32(x), float32(x+1)
				corners[0] = viz.Vec3{fx0, fy0, fz0}
				corners[1] = viz.Vec3{fx1, fy0, fz0}
				corners[2] = viz.Vec3{fx0, fy1, fz0}
				corners[3] = viz.Vec3{fx1, fy1, fz0}
				corners[4] = viz.Vec3{fx0, fy0, fz1}
				corners[5] = viz.Vec3{fx1, fy0, fz1}
				corners[6] = viz.Vec3{fx0, fy1, fz1}
				corners[7] = viz.Vec3{fx1, fy1, fz1}
				values[0], values[1], values[2], values[3] = v0, v1, v2, v3
				values[4], values[5], values[6], values[7] = v4, v5, v6, v7
				marchCell(m, &corners, &values, iso)
			}
		}
	}
}

// meshPool recycles per-block scratch meshes across ExtractBlocks calls —
// the arena the parallel extraction workers fill and the concatenation
// drains. Backing arrays persist across frames, so a steady-state monitoring
// loop extracts without re-growing per-block buffers.
var meshPool = sync.Pool{New: func() any { return new(viz.Mesh) }}

// ExtractBlocks extracts active blocks in parallel and concatenates the
// per-block meshes deterministically. This is the in-process analogue of the
// paper's MPI-based cluster modules. workers == 1 extracts sequentially on
// the calling goroutine; any other value runs the blocks over the shared
// frame-compute pool (see package fcp), whose width bounds the parallelism.
func ExtractBlocks(f *grid.ScalarField, blocks []grid.Block, iso float32, workers int) *viz.Mesh {
	out := &viz.Mesh{}
	ExtractBlocksInto(out, f, blocks, iso, workers)
	return out
}

// extractState is the pooled per-call scratch of the batch extraction path:
// the filtered active-block list, the per-block part meshes, the task the
// pool runs, and a persistent queue on the shared pool.
type extractState struct {
	active []grid.Block
	parts  []*viz.Mesh
	task   blocksTask
	queue  *fcp.Queue
}

// blocksTask extracts one active block per item into its part mesh.
type blocksTask struct {
	st  *extractState
	f   *grid.ScalarField
	iso float32
}

func (t *blocksTask) Run(_, i int) {
	m := t.st.parts[i]
	m.Reset()
	ExtractBlockInto(m, t.f, t.st.active[i], t.iso)
}

var statePool = sync.Pool{New: func() any { return new(extractState) }}

// ExtractBlocksInto is ExtractBlocks with a caller-owned output mesh: out is
// truncated and refilled, and the per-block scratch meshes come from a pool,
// so repeated block extraction reuses both arenas. The per-block meshes are
// always appended in block index order, so the output is byte-identical to
// the sequential workers == 1 path at any pool width.
//
//ricsa:noalloc
func ExtractBlocksInto(out *viz.Mesh, f *grid.ScalarField, blocks []grid.Block, iso float32, workers int) {
	out.Reset()
	if workers == 1 {
		for _, b := range blocks {
			if b.ContainsIso(iso) {
				ExtractBlockInto(out, f, b, iso)
			}
		}
		return
	}
	st := statePool.Get().(*extractState)
	st.active = st.active[:0]
	for _, b := range blocks {
		if b.ContainsIso(iso) {
			st.active = append(st.active, b)
		}
	}
	n := len(st.active)
	if cap(st.parts) < n {
		st.parts = make([]*viz.Mesh, n)
	}
	st.parts = st.parts[:n]
	for i := range st.parts {
		st.parts[i] = meshPool.Get().(*viz.Mesh)
	}
	if st.queue == nil {
		st.queue = fcp.Default().NewQueue()
	}
	st.task = blocksTask{st: st, f: f, iso: iso}
	st.queue.Run(n, &st.task)
	st.task = blocksTask{}
	for i, p := range st.parts {
		out.Append(p)
		p.Reset()
		meshPool.Put(p)
		st.parts[i] = nil
	}
	statePool.Put(st)
}

// roiTask re-extracts the dirty blocks of a BlockMeshCache: item i is the
// i-th dirty block index, extracted into that block's cached mesh.
type roiTask struct {
	c     *viz.BlockMeshCache
	f     *grid.ScalarField
	iso   float32
	dirty []int
}

func (t *roiTask) Run(_, i int) {
	bi := t.dirty[i]
	m := t.c.Mesh(bi)
	b := t.c.Block(bi)
	if m.Vertices == nil {
		// The block's first surface. A moving front enters a whole slab of
		// blocks within a frame or two; growing each cached mesh from empty
		// costs about ten appends' worth of reallocation per block, so
		// reserve one sheet across the block's largest face up front.
		m.Vertices = make([]viz.Vec3, 0, sheetVerticesPerCell*max(b.NX*b.NY, b.NY*b.NZ, b.NX*b.NZ))
	}
	m.Reset()
	ExtractBlockInto(m, t.f, b, t.iso)
}

// sheetVerticesPerCell is what a surface sheet emits per cell it crosses
// under the six-tetrahedron decomposition: eight triangles (measured on the
// planar Sod contact), three vertices each.
const sheetVerticesPerCell = 3 * 8

var roiPool = sync.Pool{New: func() any { return new(roiTask) }}

// ExtractROIInto is the dirty-block incremental extraction path: the cache
// classifies every block against its previous-frame stamp, only the dirty
// ones are re-extracted (over q when non-nil, inline otherwise), and the
// composed mesh is assembled in fixed block order — byte-identical to a
// from-scratch ExtractBlocksInto of the same snapshot. edge < 1 defaults
// to 8-cell blocks.
func ExtractROIInto(out *viz.Mesh, c *viz.BlockMeshCache, f *grid.ScalarField, edge int, iso float32, q *fcp.Queue) {
	if edge < 1 {
		edge = 8
	}
	dirty := c.Plan(f, edge, iso)
	if len(dirty) > 0 {
		t := roiPool.Get().(*roiTask)
		t.c, t.f, t.iso, t.dirty = c, f, iso, dirty
		q.Run(len(dirty), t)
		*t = roiTask{}
		roiPool.Put(t)
	}
	out.Reset()
	for i := 0; i < c.Len(); i++ {
		out.Append(c.Mesh(i))
	}
}

// marchCell triangulates one cell via the six-tetrahedron decomposition.
func marchCell(m *viz.Mesh, corners *[8]viz.Vec3, values *[8]float32, iso float32) {
	for _, tet := range kuhnTets {
		marchTet(m,
			corners[tet[0]], corners[tet[1]], corners[tet[2]], corners[tet[3]],
			values[tet[0]], values[tet[1]], values[tet[2]], values[tet[3]], iso)
	}
}

// marchTet emits 0, 1, or 2 triangles for one tetrahedron.
func marchTet(m *viz.Mesh, p0, p1, p2, p3 viz.Vec3, v0, v1, v2, v3, iso float32) {
	var above [4]bool
	n := 0
	vals := [4]float32{v0, v1, v2, v3}
	pts := [4]viz.Vec3{p0, p1, p2, p3}
	for i, v := range vals {
		if v > iso {
			above[i] = true
			n++
		}
	}
	edge := func(i, j int) viz.Vec3 {
		vi, vj := vals[i], vals[j]
		t := float32(0.5)
		if vi != vj {
			t = (iso - vi) / (vj - vi)
		}
		return pts[i].Add(pts[j].Sub(pts[i]).Scale(t))
	}
	switch n {
	case 0, 4:
		return
	case 1, 3:
		// Single corner isolated: one triangle. Fixed-size index buffers
		// keep this per-cell hot path allocation-free.
		iso1 := -1
		for i := 0; i < 4; i++ {
			if above[i] == (n == 1) {
				iso1 = i
				break
			}
		}
		var others [3]int
		no := 0
		for i := 0; i < 4; i++ {
			if i != iso1 {
				others[no] = i
				no++
			}
		}
		m.Vertices = append(m.Vertices,
			edge(iso1, others[0]), edge(iso1, others[1]), edge(iso1, others[2]))
	case 2:
		// Two above / two below: quad split into two triangles.
		var hi, lo [2]int
		nh, nl := 0, 0
		for i := 0; i < 4; i++ {
			if above[i] {
				hi[nh] = i
				nh++
			} else {
				lo[nl] = i
				nl++
			}
		}
		a := edge(hi[0], lo[0])
		b := edge(hi[0], lo[1])
		c := edge(hi[1], lo[1])
		d := edge(hi[1], lo[0])
		m.Vertices = append(m.Vertices, a, b, c, a, c, d)
	}
}

// CaseHistogram counts cells of block b by canonical case at the isovalue —
// the frequency data the cost model calibrates PCase(i) from.
func CaseHistogram(f *grid.ScalarField, b grid.Block, iso float32) [NumCases]int {
	var h [NumCases]int
	for z := b.Z0; z < b.Z0+b.NZ; z++ {
		for y := b.Y0; y < b.Y0+b.NY; y++ {
			for x := b.X0; x < b.X0+b.NX; x++ {
				h[CanonicalCase(CellConfig(f, x, y, z, iso))]++
			}
		}
	}
	return h
}
