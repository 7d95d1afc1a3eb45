package viz

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec3Algebra(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Fatal("Add")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Fatal("Sub")
	}
	if a.Dot(b) != 32 {
		t.Fatal("Dot")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Fatal("Scale")
	}
}

func TestCrossOrthogonal(t *testing.T) {
	// Constrain magnitudes so float32 products stay finite.
	squash := func(v float32) float32 {
		return float32(math.Mod(float64(v), 1e3))
	}
	prop := func(ax, ay, az, bx, by, bz float32) bool {
		a := Vec3{squash(ax), squash(ay), squash(az)}
		b := Vec3{squash(bx), squash(by), squash(bz)}
		c := a.Cross(b)
		// Cross product is orthogonal to both inputs (within float noise
		// scaled by the magnitudes involved).
		scale := float64(a.Norm()*b.Norm()*c.Norm()) + 1
		return math.Abs(float64(c.Dot(a)))/scale < 1e-4 &&
			math.Abs(float64(c.Dot(b)))/scale < 1e-4
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeUnitLength(t *testing.T) {
	v := Vec3{3, 4, 0}.Normalize()
	if math.Abs(float64(v.Norm())-1) > 1e-6 {
		t.Fatalf("norm %v, want 1", v.Norm())
	}
	z := Vec3{}.Normalize()
	if z != (Vec3{}) {
		t.Fatal("zero vector should normalize to itself")
	}
}

func TestCameraRotatePreservesLength(t *testing.T) {
	squash := func(v float32) float32 {
		return float32(math.Mod(float64(v), 1e3))
	}
	prop := func(yaw, pitch float64, x, y, z float32) bool {
		if math.IsNaN(yaw) || math.IsNaN(pitch) || math.IsInf(yaw, 0) || math.IsInf(pitch, 0) {
			return true
		}
		c := Camera{Yaw: math.Mod(yaw, math.Pi), Pitch: math.Mod(pitch, math.Pi)}
		v := Vec3{squash(x), squash(y), squash(z)}
		r := c.Rotate(v)
		return math.Abs(float64(r.Norm()-v.Norm())) <= 1e-3*float64(v.Norm())+1e-4
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestViewDirIsInverseOfRotate(t *testing.T) {
	// Rotating the world-space view direction must give view-space -z.
	for _, cam := range []Camera{
		{}, {Yaw: 0.7}, {Pitch: -0.4}, {Yaw: 1.2, Pitch: 0.9}, {Yaw: -2.5, Pitch: 0.1},
	} {
		d := cam.ViewDir()
		r := cam.Rotate(d)
		if math.Abs(float64(r[0])) > 1e-5 || math.Abs(float64(r[1])) > 1e-5 ||
			math.Abs(float64(r[2])+1) > 1e-5 {
			t.Fatalf("cam %+v: Rotate(ViewDir) = %v, want (0,0,-1)", cam, r)
		}
	}
}

func TestMeshBasics(t *testing.T) {
	m := &Mesh{Vertices: []Vec3{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}}
	if m.TriangleCount() != 1 {
		t.Fatal("TriangleCount")
	}
	if n := m.Vertices[1].Sub(m.Vertices[0]).Cross(m.Vertices[2].Sub(m.Vertices[0])); n != (Vec3{0, 0, 1}) {
		t.Fatalf("normal = %v, want +z", n)
	}
	m2 := &Mesh{}
	m2.Append(m)
	m2.Append(m)
	if m2.TriangleCount() != 2 {
		t.Fatal("Append")
	}
}

func TestMeshBounds(t *testing.T) {
	m := &Mesh{Vertices: []Vec3{{-1, 2, 0}, {3, -4, 5}, {0, 0, 0}}}
	lo, hi, ok := m.Bounds()
	if !ok || lo != (Vec3{-1, -4, 0}) || hi != (Vec3{3, 2, 5}) {
		t.Fatalf("bounds = %v..%v ok=%v", lo, hi, ok)
	}
	if _, _, ok := (&Mesh{}).Bounds(); ok {
		t.Fatal("empty mesh should report no bounds")
	}
}

func TestImagePixelOps(t *testing.T) {
	im := NewImage(4, 4)
	if im.NonBlackPixels() != 0 {
		t.Fatal("fresh image should be black")
	}
	im.Set(1, 2, 10, 20, 30, 255)
	r, g, b, a := im.At(1, 2)
	if r != 10 || g != 20 || b != 30 || a != 255 {
		t.Fatal("Set/At mismatch")
	}
	im.Set(-1, 0, 1, 1, 1, 1) // must not panic
	im.Set(0, 99, 1, 1, 1, 1)
	if im.NonBlackPixels() != 1 {
		t.Fatalf("NonBlackPixels = %d, want 1", im.NonBlackPixels())
	}
}

func TestImagePNGRoundTrip(t *testing.T) {
	im := NewImage(8, 8)
	im.Set(3, 3, 200, 100, 50, 255)
	data, err := im.PNG()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 || data[1] != 'P' || data[2] != 'N' || data[3] != 'G' {
		t.Fatal("not a PNG header")
	}
}

func TestImageGray(t *testing.T) {
	im := NewImage(2, 2)
	if im.Gray() != 0 {
		t.Fatal("black image should have zero gray")
	}
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			im.Set(x, y, 255, 255, 255, 255)
		}
	}
	if math.Abs(im.Gray()-1) > 0.01 {
		t.Fatalf("white image gray = %v, want ~1", im.Gray())
	}
}
