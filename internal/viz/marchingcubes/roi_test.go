package marchingcubes

import (
	"math/rand"
	"testing"

	"ricsa/internal/fcp"
	"ricsa/internal/grid"
	"ricsa/internal/viz"
)

func randomROIField(rng *rand.Rand, nx, ny, nz int) *grid.ScalarField {
	f := grid.NewScalarField(nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = rng.Float32()
	}
	return f
}

func meshesEqual(t *testing.T, want, got *viz.Mesh, ctx string) {
	t.Helper()
	if len(want.Vertices) != len(got.Vertices) {
		t.Fatalf("%s: vertex counts differ: want %d, got %d",
			ctx, len(want.Vertices), len(got.Vertices))
	}
	for i := range want.Vertices {
		if want.Vertices[i] != got.Vertices[i] {
			t.Fatalf("%s: vertex %d differs: want %v, got %v",
				ctx, i, want.Vertices[i], got.Vertices[i])
		}
	}
}

// TestExtractBlocksIntoPoolByteIdentical pins the pool determinism contract:
// at any pool width, the pooled batch extraction emits byte-for-byte the
// same mesh as the sequential workers == 1 path.
func TestExtractBlocksIntoPoolByteIdentical(t *testing.T) {
	defer fcp.SetDefaultWorkers(0)
	f := sphereField(17)
	blocks := grid.Decompose(f, 4)
	var want viz.Mesh
	ExtractBlocksInto(&want, f, blocks, 5.0, 1)
	if len(want.Vertices) == 0 {
		t.Fatal("sequential extraction produced no triangles")
	}
	for _, width := range []int{1, 2, 3, 8} {
		fcp.SetDefaultWorkers(width)
		var got viz.Mesh
		for round := 0; round < 3; round++ {
			ExtractBlocksInto(&got, f, blocks, 5.0, 0)
			meshesEqual(t, &want, &got, "pooled vs sequential")
		}
	}
}

// TestExtractROICacheEquivalence is the dirty-block correctness property:
// after any sequence of field mutations (and an isovalue steer), the
// incremental cached extraction is byte-identical to a from-scratch
// sequential block extraction of the same snapshot, and an unchanged field
// re-extracts exactly zero blocks.
func TestExtractROICacheEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := randomROIField(rng, 20, 16, 12)
	const edge = 4
	iso := float32(0.5)

	var cache viz.BlockMeshCache
	var got, want viz.Mesh
	q := fcp.Default().NewQueue()

	check := func(ctx string) {
		ExtractROIInto(&got, &cache, f, edge, iso, q)
		ExtractBlocksInto(&want, f, grid.Decompose(f, edge), iso, 1)
		meshesEqual(t, &want, &got, ctx)
	}

	check("cold cache")
	if _, extracted := cache.TakeStats(); extracted == 0 {
		t.Fatal("cold cache reported zero extracted blocks")
	}

	// Steady state: nothing changed, so every block's stamp matches and
	// nothing re-extracts.
	check("steady state")
	if reused, extracted := cache.TakeStats(); extracted != 0 {
		t.Fatalf("unchanged field re-extracted %d blocks (reused %d), want 0", extracted, reused)
	}

	// Localized churn: mutate a random box each round, as a sweep would.
	for trial := 0; trial < 12; trial++ {
		x0, y0, z0 := rng.Intn(f.NX), rng.Intn(f.NY), rng.Intn(f.NZ)
		for dz := 0; dz < 3 && z0+dz < f.NZ; dz++ {
			for dy := 0; dy < 3 && y0+dy < f.NY; dy++ {
				for dx := 0; dx < 3 && x0+dx < f.NX; dx++ {
					i := ((z0+dz)*f.NY+y0+dy)*f.NX + x0 + dx
					f.Data[i] = rng.Float32()
				}
			}
		}
		check("after localized mutation")
		if reused, extracted := cache.TakeStats(); extracted+reused != cache.Len() {
			t.Fatalf("stats do not partition the blocks: %d+%d != %d",
				reused, extracted, cache.Len())
		}
	}

	// An isovalue steer must fully re-plan (no stale meshes at the old iso).
	iso = 0.3
	check("after isovalue steer")
}

// TestExtractROINilQueueInline: the ROI path must work without a pool (the
// emulated Session passes a nil queue).
func TestExtractROINilQueueInline(t *testing.T) {
	f := sphereField(17)
	var cache viz.BlockMeshCache
	var got, want viz.Mesh
	ExtractROIInto(&got, &cache, f, 4, 5.0, nil)
	ExtractBlocksInto(&want, f, grid.Decompose(f, 4), 5.0, 1)
	meshesEqual(t, &want, &got, "nil queue")
}

// TestExtractROIThresholdKeepsStaleMesh covers the approximation knob: with
// a positive threshold, a drift smaller than it on a block that stays on the
// same side of the isovalue keeps the stale mesh (trading exactness for
// work), while the default zero threshold re-extracts.
func TestExtractROIThresholdKeepsStaleMesh(t *testing.T) {
	const iso = float32(5.0)
	f := sphereField(17)

	// Pick a surface-crossing block with margin, and a lattice point strictly
	// interior to its support, so the nudge below touches exactly one block
	// that is active before and after.
	var target grid.Block
	found := false
	for _, b := range grid.Decompose(f, 4) {
		if b.Min < iso-0.1 && b.Max > iso+0.1 {
			target, found = b, true
			break
		}
	}
	if !found {
		t.Fatal("no comfortably active block in the sphere field")
	}
	pt := ((target.Z0+1)*f.NY+target.Y0+1)*f.NX + target.X0 + 1
	nudge := func() {
		if f.Data[pt] > iso {
			f.Data[pt] += 0.001
		} else {
			f.Data[pt] -= 0.001
		}
	}

	var cache viz.BlockMeshCache
	cache.Threshold = 0.25
	var got viz.Mesh
	ExtractROIInto(&got, &cache, f, 4, iso, nil)
	cache.TakeStats()

	// Drift far below the threshold, same side of the isovalue: the stale
	// mesh is kept.
	nudge()
	ExtractROIInto(&got, &cache, f, 4, iso, nil)
	if _, extracted := cache.TakeStats(); extracted != 0 {
		t.Fatalf("drift below threshold re-extracted %d blocks, want 0", extracted)
	}

	// The exact default must see the same nudge as dirty.
	var exact viz.BlockMeshCache
	ExtractROIInto(&got, &exact, f, 4, iso, nil)
	exact.TakeStats()
	nudge()
	ExtractROIInto(&got, &exact, f, 4, iso, nil)
	if _, extracted := exact.TakeStats(); extracted != 1 {
		t.Fatalf("exact cache re-extracted %d blocks for a one-block change, want 1", extracted)
	}
}
