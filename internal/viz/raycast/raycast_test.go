package raycast

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ricsa/internal/fcp"
	"ricsa/internal/grid"
	"ricsa/internal/viz"
)

func ballField(n int) *grid.ScalarField {
	f := grid.NewScalarField(n, n, n)
	c := float64(n-1) / 2
	f.Fill(func(x, y, z int) float32 {
		dx, dy, dz := float64(x)-c, float64(y)-c, float64(z)-c
		d := math.Sqrt(dx*dx+dy*dy+dz*dz) / c
		if d > 1 {
			return 0
		}
		return float32(1 - d)
	})
	return f
}

func TestRenderProducesCenterBrightness(t *testing.T) {
	f := ballField(33)
	opt := DefaultOptions()
	opt.Width, opt.Height = 64, 64
	opt.Transfer = GrayRamp(0, 1, 0.3)
	img := Render(f, opt)
	cr, _, _, _ := img.At(32, 32)
	er, _, _, _ := img.At(2, 2)
	if cr == 0 {
		t.Fatal("center ray accumulated nothing")
	}
	if er >= cr {
		t.Fatalf("edge brightness %d >= center %d", er, cr)
	}
}

func TestRenderViewIndependentForSphericalField(t *testing.T) {
	f := ballField(25)
	opt := DefaultOptions()
	opt.Width, opt.Height = 48, 48
	opt.Transfer = GrayRamp(0, 1, 0.2)
	base := Render(f, opt).Gray()
	for _, yaw := range []float64{0.8, 2.1} {
		opt.Camera.Yaw = yaw
		g := Render(f, opt).Gray()
		if math.Abs(g-base)/math.Max(base, 1e-9) > 0.08 {
			t.Fatalf("gray at yaw %.1f = %.4f, base %.4f", yaw, g, base)
		}
	}
}

func TestSamplesPerRayScalesWithStep(t *testing.T) {
	f := ballField(33)
	n1 := SamplesPerRay(f, 1.0)
	n2 := SamplesPerRay(f, 0.5)
	if n2 < 2*n1-2 || n2 > 2*n1+2 {
		t.Fatalf("halving step: %d -> %d samples, want ~2x", n1, n2)
	}
}

func TestEarlyTerminationDarkensNothingOpaque(t *testing.T) {
	// With a fully opaque transfer function, early termination must not
	// change the image materially but must not brighten it.
	f := ballField(25)
	opt := DefaultOptions()
	opt.Width, opt.Height = 32, 32
	opt.Transfer = GrayRamp(0, 1, 5.0)
	plain := Render(f, opt)
	opt.EarlyTermination = true
	early := Render(f, opt)
	if early.Gray() > plain.Gray()+0.02 {
		t.Fatalf("early termination brightened image: %.4f vs %.4f", early.Gray(), plain.Gray())
	}
}

func TestTransferFunctionsClamped(t *testing.T) {
	for _, tf := range []TransferFunc{GrayRamp(0, 1, 0.5), HotIron(0, 1, 0.5)} {
		for _, v := range []float64{-10, -0.1, 0, 0.3, 0.99, 1, 7} {
			r, g, b, a := tf(v)
			for _, c := range []float64{r, g, b, a} {
				if c < 0 || c > 1 {
					t.Fatalf("transfer output %v out of [0,1] for v=%v", c, v)
				}
			}
		}
	}
}

func TestWorkerCountDoesNotChangeImage(t *testing.T) {
	f := ballField(25)
	opt := DefaultOptions()
	opt.Width, opt.Height = 40, 40
	opt.Workers = 1
	a := Render(f, opt)
	opt.Workers = 8
	if b := Render(f, opt); !bytes.Equal(a.Pix, b.Pix) {
		t.Fatal("image differs between inline rows and the default pool")
	}
	// Rows through a caller's queue, as a session renders.
	for _, width := range []int{1, 3} {
		pool := fcp.NewPool(width)
		opt.Queue = pool.NewQueue()
		if b := Render(f, opt); !bytes.Equal(a.Pix, b.Pix) {
			t.Fatalf("image differs between inline rows and a %d-slot queue", width)
		}
		pool.Close()
	}
}

func TestEmptyFieldRendersBlack(t *testing.T) {
	f := grid.NewScalarField(9, 9, 9)
	img := Render(f, DefaultOptions())
	if img.NonBlackPixels() != 0 {
		t.Fatal("zero field should render black")
	}
}

var _ = viz.Vec3{} // package used in camera types

// slabField is a non-cubic volume with structure along every axis, so a
// sample skipped or added anywhere along a ray changes the pixel.
func slabField() *grid.ScalarField {
	f := grid.NewScalarField(64, 32, 32)
	f.Fill(func(x, y, z int) float32 {
		return float32(0.5 + 0.25*math.Sin(0.31*float64(x)) + 0.15*math.Cos(0.47*float64(y)) + 0.1*math.Sin(0.23*float64(z)+0.05*float64(x)))
	})
	return f
}

// TestRenderImageHashes pins the rendered bytes under five cameras to the
// SHA-256 the unclipped marching loop produced at commit 75bbaf0: zoomed out
// (most rays miss the box), zoomed in (every ray starts inside the bounding
// sphere's cube), oblique, axis-aligned (two direction components are within
// rounding of zero), and the steep pitch that swaps the up vector. amd64
// only: the hashes cover float arithmetic arm64 fuses.
func TestRenderImageHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("image hashes were recorded on amd64")
	}
	f := slabField()
	cases := []struct {
		name string
		cam  viz.Camera
		step float64
		want string
	}{
		{"zoom 1", viz.Camera{Zoom: 1}, 1, "bfa126b3367a54edb07e2b6d1416d84fe6b671ce6f82bddde2bcffb9a2615e2a"},
		{"zoom 0.25", viz.Camera{Zoom: 0.25}, 1, "dd498775c417c613b1e5086e04ce0befd34b805eeef1e626032e2e9f9506bf3d"},
		{"zoom 3 oblique", viz.Camera{Zoom: 3, Yaw: 0.7, Pitch: 0.4}, 0.5, "c1b971328497d656c350426d4f1f13dfa97b39cb85599df1abec4abbf37486b2"},
		{"yaw pi/2", viz.Camera{Zoom: 1, Yaw: math.Pi / 2}, 1, "17116a0e986f565d8df78069442127103f550951a25671c0c5ee6cb5dbb3d8de"},
		{"steep pitch", viz.Camera{Zoom: 1, Yaw: 0.2, Pitch: 1.5}, 1, "3a518e0808757bee84b633da8820ff80409791caf7c6afe835a69ebc112ccc02"},
	}
	for _, c := range cases {
		opt := DefaultOptions()
		opt.Width, opt.Height = 96, 80
		opt.Camera = c.cam
		opt.Step = c.step
		opt.Transfer = HotIron(0, 1, 0.15)
		opt.Workers = 1
		img := Render(f, opt)
		if img.NonBlackPixels() == 0 {
			t.Fatalf("%s: empty image", c.name)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(img.Pix)); got != c.want {
			t.Errorf("%s: image hash %s, want %s", c.name, got, c.want)
		}
	}
}

// TestClipRayIsSuperset checks the clip against the marching loop's own box
// test: for random rays — oblique, axis-parallel with exact zeros, grazing
// a face, starting inside, missing the box — every sample that passes the
// test lies inside the returned range.
func TestClipRayIsSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hi := [3]float64{63, 31, 31}
	const nSamples = 79
	coord := func(a int) float64 {
		switch rng.Intn(6) {
		case 0:
			return 0 // on the low face
		case 1:
			return hi[a] // on the high face
		case 2:
			return -1 - 40*rng.Float64() // outside
		default:
			return hi[a] * (1.4*rng.Float64() - 0.2)
		}
	}
	missed := 0
	for i := 0; i < 20000; i++ {
		var o, d [3]float64
		for a := range o {
			o[a] = coord(a)
			d[a] = 2*rng.Float64() - 1
			switch rng.Intn(5) {
			case 0:
				d[a] = 0
			case 1:
				d[a] *= 1e-17 // the cos(pi/2) of an axis-aligned camera
			}
		}
		step := []float64{1, 0.5, 0.37}[rng.Intn(3)]
		s0, s1 := clipRay(o, d, hi, step, nSamples)
		if s0 < 0 || s1 > nSamples || s0 > s1 {
			t.Fatalf("ray %d: range [%d, %d) outside [0, %d)", i, s0, s1, nSamples)
		}
		if s0 == s1 {
			missed++
		}
		for s := 0; s < nSamples; s++ {
			ts := float64(s) * step
			px, py, pz := o[0]+d[0]*ts, o[1]+d[1]*ts, o[2]+d[2]*ts
			inside := !(px < 0 || py < 0 || pz < 0 || px > hi[0] || py > hi[1] || pz > hi[2])
			if inside && (s < s0 || s >= s1) {
				t.Fatalf("ray %d (o=%v d=%v step=%v): sample %d is inside the box but outside the clip [%d, %d)",
					i, o, d, step, s, s0, s1)
			}
		}
	}
	if missed == 0 {
		t.Fatal("no generated ray missed the box")
	}
	// A ray parallel to x, one voxel above the box: ruled out by the y slab.
	if s0, s1 := clipRay([3]float64{-10, 32, 5}, [3]float64{1, 0, 0}, hi, 1, nSamples); s0 != s1 {
		t.Fatalf("parallel miss clipped to [%d, %d), want empty", s0, s1)
	}
}
