package render

import (
	"testing"

	"ricsa/internal/testutil"
	"ricsa/internal/viz"
)

// testMesh builds a small deterministic triangle soup (under the parallel
// rasterization threshold, so the serial allocation-free path runs).
func testMesh(n int) *viz.Mesh {
	m := &viz.Mesh{}
	for i := 0; i < n; i++ {
		fi := float32(i)
		m.Vertices = append(m.Vertices,
			viz.Vec3{fi, 0, 0}, viz.Vec3{fi + 1, 2, 0}, viz.Vec3{fi, 2, 1})
	}
	return m
}

// TestRenderWithAllocationFlat asserts second-and-later renders into reused
// scratch perform no steady-state allocation.
func TestRenderWithAllocationFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	m := testMesh(200)
	opt := DefaultOptions()
	opt.Width, opt.Height = 128, 128
	opt.Workers = 1
	var sc viz.FrameScratch
	img := RenderWith(&sc, m, opt) // grow the buffers
	if img.NonBlackPixels() == 0 {
		t.Fatal("render produced an empty image")
	}
	allocs := testing.AllocsPerRun(10, func() {
		RenderWith(&sc, m, opt)
	})
	t.Logf("RenderWith allocs/op: %.1f", allocs)
	if allocs > 1 {
		t.Fatalf("warm RenderWith allocates %.1f objects/op, want <= 1", allocs)
	}
}

// TestRenderWithMatchesRender checks the scratch path renders identical
// pixels to the allocating path.
func TestRenderWithMatchesRender(t *testing.T) {
	m := testMesh(64)
	opt := DefaultOptions()
	opt.Width, opt.Height = 96, 96
	opt.Workers = 1
	plain := RenderWith(nil, m, opt)
	var sc viz.FrameScratch
	RenderWith(&sc, m, opt) // once to dirty the scratch
	reused := RenderWith(&sc, m, opt)
	if len(plain.Pix) != len(reused.Pix) {
		t.Fatal("image sizes differ")
	}
	for i := range plain.Pix {
		if plain.Pix[i] != reused.Pix[i] {
			t.Fatalf("pixel byte %d differs: %d vs %d", i, plain.Pix[i], reused.Pix[i])
		}
	}
}
