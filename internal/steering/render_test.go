package steering

import (
	"runtime"
	"testing"

	"ricsa/internal/dataset"
	"ricsa/internal/fcp"
	"ricsa/internal/testutil"
	"ricsa/internal/viz"
)

func TestRenderDatasetAllMethods(t *testing.T) {
	f := dataset.Generate(dataset.JetSpec.Scaled(8))
	req := DefaultRequest()
	req.Isovalue = dataset.DefaultIsovalue(dataset.KindJet)
	for _, method := range []string{"isosurface", "raycast", "streamline"} {
		req.Method = method
		img, err := RenderDataset(f, req, 64, 64)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if img.NonBlackPixels() == 0 {
			t.Fatalf("%s rendered nothing", method)
		}
	}
	req.Method = "hologram"
	if _, err := RenderDataset(f, req, 32, 32); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestRenderDatasetOctantSubset(t *testing.T) {
	f := dataset.Generate(dataset.RageSpec.Scaled(16))
	req := DefaultRequest()
	req.Method = "isosurface"
	req.Isovalue = dataset.DefaultIsovalue(dataset.KindRage)

	req.Octant = -1
	full, err := RenderDataset(f, req, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	distinct := false
	for oct := 0; oct < 8; oct++ {
		req.Octant = oct
		img, err := RenderDataset(f, req, 64, 64)
		if err != nil {
			t.Fatalf("octant %d: %v", oct, err)
		}
		// The blast shell intersects every octant of the Rage analogue.
		if img.NonBlackPixels() == 0 {
			t.Fatalf("octant %d rendered nothing", oct)
		}
		if img.NonBlackPixels() != full.NonBlackPixels() {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("octant subsets indistinguishable from the full dataset")
	}
}

// TestRenderMultiCoreAllocationFlat is the allocation gate AllocsPerRun
// cannot be: that helper pins GOMAXPROCS(1), where every pooled stage runs
// inline, so a per-frame allocation that exists only when work fans out (a
// goroutine or closure per raster band, say) is invisible to it. This one
// counts runtime mallocs over warm RenderDatasetROI frames on a one-slot
// pool and on a four-slot pool at GOMAXPROCS(4), and fails when the wide run
// costs an allocation per frame more than the inline run.
func TestRenderMultiCoreAllocationFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const frames = 50
	req := DefaultRequest()
	sim, err := newSimulator(req)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetWorkers(1)
	for i := 0; i < 8; i++ {
		sim.Step()
	}
	field := sim.Density()

	mallocs := func(procs int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		pool := fcp.NewPool(procs)
		defer pool.Close()
		q := pool.NewQueue()
		var sc viz.FrameScratch
		var roi viz.BlockMeshCache
		frame := func() {
			img, err := RenderDatasetROI(&sc, &roi, q, field, req, 256, 256)
			if err != nil {
				t.Fatal(err)
			}
			if procs > 1 && sc.Mesh.TriangleCount() < 1024 {
				t.Fatalf("mesh has %d triangles, under the pooled-raster threshold", sc.Mesh.TriangleCount())
			}
			if img.NonBlackPixels() == 0 {
				t.Fatal("frame rendered nothing")
			}
		}
		for i := 0; i < 3; i++ {
			frame() // grow the arenas, fill the block cache and the task pools
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < frames; i++ {
			frame()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	inline := mallocs(1)
	wide := mallocs(4)
	t.Logf("mallocs over %d warm frames: %d inline, %d on four slots", frames, inline, wide)
	if wide >= inline+frames {
		t.Fatalf("%d warm frames allocate %d objects on four slots, %d inline: the pooled path allocates per frame",
			frames, wide, inline)
	}
}
