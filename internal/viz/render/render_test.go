package render

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"ricsa/internal/fcp"
	"ricsa/internal/grid"
	"ricsa/internal/viz"
	"ricsa/internal/viz/marchingcubes"
)

func sphereMesh(n int, r float64) *viz.Mesh {
	f := grid.NewScalarField(n, n, n)
	c := float64(n-1) / 2
	f.Fill(func(x, y, z int) float32 {
		dx, dy, dz := float64(x)-c, float64(y)-c, float64(z)-c
		return float32(math.Sqrt(dx*dx + dy*dy + dz*dz))
	})
	return marchingcubes.Extract(f, float32(r))
}

func TestRenderEmptyMesh(t *testing.T) {
	img := Render(&viz.Mesh{}, DefaultOptions())
	if img.NonBlackPixels() != 0 {
		t.Fatal("empty mesh should render black")
	}
}

func TestRenderSphereCoversDisk(t *testing.T) {
	m := sphereMesh(33, 10)
	opt := DefaultOptions()
	opt.Width, opt.Height = 128, 128
	img := Render(m, opt)
	got := img.NonBlackPixels()
	if got == 0 {
		t.Fatal("sphere rendered nothing")
	}
	// An orthographic sphere at zoom 1 fills roughly pi/4 of the square
	// spanned by its bounding box; bounding box is fit to the viewport, so
	// coverage should be near pi/4 of the viewport.
	frac := float64(got) / float64(128*128)
	if frac < 0.5 || frac > 0.95 {
		t.Fatalf("sphere covers %.2f of viewport, expected mid-range disk", frac)
	}
	// Center pixel must be lit, corners must be background.
	if r, g, b, _ := img.At(64, 64); r == 0 && g == 0 && b == 0 {
		t.Fatal("center of sphere is black")
	}
	if r, g, b, _ := img.At(1, 1); r != 0 || g != 0 || b != 0 {
		t.Fatal("corner should be background")
	}
}

func TestRenderZoomChangesCoverage(t *testing.T) {
	m := sphereMesh(17, 5)
	small := DefaultOptions()
	small.Width, small.Height = 96, 96
	small.Camera.Zoom = 0.5
	big := small
	big.Camera.Zoom = 1.0
	a := Render(m, small).NonBlackPixels()
	b := Render(m, big).NonBlackPixels()
	if a >= b {
		t.Fatalf("zoom 0.5 coverage %d should be below zoom 1 coverage %d", a, b)
	}
}

func TestRenderRotationInvariantForSphere(t *testing.T) {
	// A sphere silhouette is rotation invariant: pixel coverage should be
	// nearly identical across camera angles.
	m := sphereMesh(25, 8)
	opt := DefaultOptions()
	opt.Width, opt.Height = 96, 96
	base := Render(m, opt).NonBlackPixels()
	for _, yaw := range []float64{0.5, 1.2, 2.9} {
		opt.Camera.Yaw = yaw
		got := Render(m, opt).NonBlackPixels()
		if math.Abs(float64(got-base))/float64(base) > 0.05 {
			t.Fatalf("coverage at yaw %.1f = %d, base %d", yaw, got, base)
		}
	}
}

// TestRenderParallelMatchesSerial: bands run over the frame-compute pool —
// at several pool widths, through a caller's queue and through the private
// default-pool one, at a height the band count does not divide — produce the
// serial raster's image byte for byte.
func TestRenderParallelMatchesSerial(t *testing.T) {
	m := sphereMesh(25, 8)
	if m.TriangleCount() < 1024 {
		t.Fatalf("mesh has %d triangles, under the pooled-raster threshold", m.TriangleCount())
	}
	opt := DefaultOptions()
	opt.Width, opt.Height = 100, 101
	opt.Camera = viz.Camera{Zoom: 1.3, Yaw: 0.4, Pitch: 0.3}
	opt.Workers = 1
	serial := Render(m, opt)
	if serial.NonBlackPixels() == 0 {
		t.Fatal("serial render is empty")
	}
	same := func(name string, got *viz.Image) {
		t.Helper()
		if !bytes.Equal(serial.Pix, got.Pix) {
			t.Fatalf("%s: image differs from the serial raster", name)
		}
	}
	opt.Workers = 0
	same("default pool", Render(m, opt))
	for _, width := range []int{1, 2, 3, 8} {
		pool := fcp.NewPool(width)
		opt.Queue = pool.NewQueue()
		var sc viz.FrameScratch
		RenderWith(&sc, m, opt) // dirty the scratch: the second render must clear it
		same(fmt.Sprintf("pool width %d", width), RenderWith(&sc, m, opt))
		pool.Close()
	}
}

func TestRenderDepthOrdering(t *testing.T) {
	// Two parallel triangles; the nearer one (larger view z) must win.
	// z offsets are small so the x/y extent dominates the viewport fit.
	m := &viz.Mesh{Vertices: []viz.Vec3{
		{-1, -1, -0.5}, {1, -1, -0.5}, {0, 1, -0.5},
		{-1, -1, 0.5}, {1, -1, 0.5}, {0, 1, 0.5},
	}}
	opt := DefaultOptions()
	opt.Width, opt.Height = 64, 64
	opt.BaseR, opt.BaseG, opt.BaseB = 255, 0, 0
	img := Render(m, opt)
	// Render the near triangle alone for reference color.
	ref := Render(&viz.Mesh{Vertices: m.Vertices[3:]}, opt)
	r1, _, _, _ := img.At(32, 40)
	r2, _, _, _ := ref.At(32, 40)
	if r1 != r2 {
		t.Fatalf("depth test failed: got %d, want near-triangle shade %d", r1, r2)
	}
}
