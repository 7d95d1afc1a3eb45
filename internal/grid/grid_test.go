package grid

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func sphereField(n int) *ScalarField {
	f := NewScalarField(n, n, n)
	c := float64(n-1) / 2
	f.Fill(func(x, y, z int) float32 {
		dx, dy, dz := float64(x)-c, float64(y)-c, float64(z)-c
		return float32(math.Sqrt(dx*dx + dy*dy + dz*dz))
	})
	return f
}

func TestIndexRoundTrip(t *testing.T) {
	f := NewScalarField(5, 7, 3)
	seen := map[int]bool{}
	for z := 0; z < 3; z++ {
		for y := 0; y < 7; y++ {
			for x := 0; x < 5; x++ {
				i := f.Index(x, y, z)
				if seen[i] {
					t.Fatalf("index collision at (%d,%d,%d)", x, y, z)
				}
				seen[i] = true
			}
		}
	}
	if len(seen) != 5*7*3 {
		t.Fatalf("indexed %d points, want %d", len(seen), 5*7*3)
	}
}

func TestSetAt(t *testing.T) {
	f := NewScalarField(4, 4, 4)
	f.Set(1, 2, 3, 42)
	if f.At(1, 2, 3) != 42 {
		t.Fatal("Set/At mismatch")
	}
	if f.At(3, 2, 1) != 0 {
		t.Fatal("unexpected nonzero sample")
	}
}

func TestSampleAtLatticePoints(t *testing.T) {
	f := sphereField(8)
	for _, p := range [][3]int{{0, 0, 0}, {3, 4, 5}, {7, 7, 7}} {
		want := float64(f.At(p[0], p[1], p[2]))
		got := f.Sample(float64(p[0]), float64(p[1]), float64(p[2]))
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("Sample(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestSampleInterpolatesLinearly(t *testing.T) {
	// A linear field must be reproduced exactly by trilinear interpolation.
	f := NewScalarField(4, 4, 4)
	f.Fill(func(x, y, z int) float32 { return float32(2*x + 3*y - z) })
	for _, p := range [][3]float64{{0.5, 0.5, 0.5}, {1.25, 2.75, 0.1}, {2.9, 0.2, 2.2}} {
		want := 2*p[0] + 3*p[1] - p[2]
		got := f.Sample(p[0], p[1], p[2])
		if math.Abs(got-want) > 1e-5 {
			t.Fatalf("Sample(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestSampleClampsOutside(t *testing.T) {
	f := sphereField(8)
	in := f.Sample(0, 0, 0)
	out := f.Sample(-5, -5, -5)
	if in != out {
		t.Fatalf("clamped sample %v != corner sample %v", out, in)
	}
}

func TestSamplePropertyBounded(t *testing.T) {
	f := sphereField(6)
	mn, mx := f.MinMax()
	prop := func(x, y, z float64) bool {
		v := f.Sample(math.Mod(math.Abs(x), 6), math.Mod(math.Abs(y), 6), math.Mod(math.Abs(z), 6))
		return v >= float64(mn)-1e-6 && v <= float64(mx)+1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGradientOfLinearField(t *testing.T) {
	f := NewScalarField(6, 6, 6)
	f.Fill(func(x, y, z int) float32 { return float32(2*x - 3*y + 5*z) })
	gx, gy, gz := f.Gradient(2, 3, 2)
	if gx != 2 || gy != -3 || gz != 5 {
		t.Fatalf("gradient = (%v,%v,%v), want (2,-3,5)", gx, gy, gz)
	}
}

func TestMinMax(t *testing.T) {
	f := NewScalarField(3, 3, 3)
	f.Set(1, 1, 1, -7)
	f.Set(2, 2, 2, 11)
	mn, mx := f.MinMax()
	if mn != -7 || mx != 11 {
		t.Fatalf("MinMax = (%v, %v), want (-7, 11)", mn, mx)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	f := sphereField(7)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 12+f.SizeBytes() {
		t.Fatalf("serialized %d bytes, want %d", buf.Len(), 12+f.SizeBytes())
	}
	b := buf.Bytes()
	le := binary.LittleEndian
	if nx, ny, nz := int(le.Uint32(b[0:])), int(le.Uint32(b[4:])), int(le.Uint32(b[8:])); nx != f.NX || ny != f.NY || nz != f.NZ {
		t.Fatalf("dims %dx%dx%d, want %dx%dx%d", nx, ny, nz, f.NX, f.NY, f.NZ)
	}
	for i := range f.Data {
		if math.Float32frombits(le.Uint32(b[12+4*i:])) != f.Data[i] {
			t.Fatalf("sample %d mismatch", i)
		}
	}
}

func TestVectorFieldSample(t *testing.T) {
	vf := NewVectorField(4, 4, 4)
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				vf.Set(x, y, z, float32(x), float32(2*y), float32(3*z))
			}
		}
	}
	u, v, w := vf.Sample(1.5, 1.5, 1.5)
	if math.Abs(u-1.5) > 1e-6 || math.Abs(v-3) > 1e-6 || math.Abs(w-4.5) > 1e-6 {
		t.Fatalf("sample = (%v,%v,%v), want (1.5,3,4.5)", u, v, w)
	}
}

func TestDecomposeCoversAllCells(t *testing.T) {
	f := sphereField(10) // 9x9x9 cells
	for _, edge := range []int{1, 2, 3, 4, 9, 16} {
		blocks := Decompose(f, edge)
		total := 0
		for _, b := range blocks {
			total += b.Cells()
		}
		if total != f.Cells() {
			t.Fatalf("edge %d: blocks cover %d cells, want %d", edge, total, f.Cells())
		}
	}
}

func TestDecomposeMinMaxCorrect(t *testing.T) {
	f := sphereField(9)
	for _, b := range Decompose(f, 4) {
		mn, mx := float32(math.Inf(1)), float32(math.Inf(-1))
		for z := b.Z0; z <= b.Z0+b.NZ; z++ {
			for y := b.Y0; y <= b.Y0+b.NY; y++ {
				for x := b.X0; x <= b.X0+b.NX; x++ {
					v := f.At(x, y, z)
					if v < mn {
						mn = v
					}
					if v > mx {
						mx = v
					}
				}
			}
		}
		if b.Min != mn || b.Max != mx {
			t.Fatalf("block %+v min/max (%v,%v), want (%v,%v)", b, b.Min, b.Max, mn, mx)
		}
	}
}

func TestActiveBlocksCulling(t *testing.T) {
	f := sphereField(17)
	blocks := Decompose(f, 4)
	iso := float32(4.0) // a small sphere: most outer blocks are inactive
	active := ActiveBlocks(blocks, iso)
	if len(active) == 0 {
		t.Fatal("no active blocks for an isovalue inside the range")
	}
	if len(active) >= len(blocks) {
		t.Fatalf("culling removed nothing: %d of %d active", len(active), len(blocks))
	}
	for _, b := range active {
		if !b.ContainsIso(iso) {
			t.Fatalf("inactive block returned: %+v", b)
		}
	}
}

func TestOctantsPartitionCells(t *testing.T) {
	f := sphereField(9)
	oct := Octants(f)
	total := 0
	for _, b := range oct {
		total += b.Cells()
	}
	if total != f.Cells() {
		t.Fatalf("octants cover %d cells, want %d", total, f.Cells())
	}
}

func TestSubFieldMatchesParent(t *testing.T) {
	f := sphereField(9)
	b := Block{X0: 2, Y0: 1, Z0: 3, NX: 4, NY: 3, NZ: 2}
	sub := SubField(f, b)
	if sub.NX != 5 || sub.NY != 4 || sub.NZ != 3 {
		t.Fatalf("subfield dims %dx%dx%d", sub.NX, sub.NY, sub.NZ)
	}
	for z := 0; z <= b.NZ; z++ {
		for y := 0; y <= b.NY; y++ {
			for x := 0; x <= b.NX; x++ {
				if sub.At(x, y, z) != f.At(b.X0+x, b.Y0+y, b.Z0+z) {
					t.Fatalf("subfield mismatch at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}
