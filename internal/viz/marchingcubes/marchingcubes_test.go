package marchingcubes

import (
	"math"
	"testing"
	"testing/quick"

	"ricsa/internal/grid"
	"ricsa/internal/viz"
)

// extract returns the whole field's isosurface in a fresh mesh.
func extract(f *grid.ScalarField, iso float32) *viz.Mesh {
	m := &viz.Mesh{}
	ExtractInto(m, f, iso)
	return m
}

// numClasses reports the number of distinct canonical classes discovered.
func numClasses() int {
	seen := map[int]bool{}
	for _, c := range caseOf {
		seen[c] = true
	}
	return len(seen)
}

func sphereField(n int) *grid.ScalarField {
	f := grid.NewScalarField(n, n, n)
	c := float64(n-1) / 2
	f.Fill(func(x, y, z int) float32 {
		dx, dy, dz := float64(x)-c, float64(y)-c, float64(z)-c
		return float32(math.Sqrt(dx*dx + dy*dy + dz*dz))
	})
	return f
}

func TestExactlyFifteenCanonicalCases(t *testing.T) {
	if got := numClasses(); got != NumCases {
		t.Fatalf("found %d canonical marching-cubes classes, want %d", got, NumCases)
	}
}

func TestRotationGroupHas24Elements(t *testing.T) {
	if len(rotations) != 24 {
		t.Fatalf("cube rotation group has %d elements, want 24", len(rotations))
	}
}

func TestCaseInvariantUnderComplement(t *testing.T) {
	for cfg := 0; cfg < 256; cfg++ {
		if caseOf[cfg] != caseOf[cfg^0xff] {
			t.Fatalf("case of %02x (%d) differs from complement (%d)", cfg, caseOf[cfg], caseOf[cfg^0xff])
		}
	}
}

func TestCaseInvariantUnderRotation(t *testing.T) {
	permute := func(cfg int, p [8]int) int {
		out := 0
		for c := 0; c < 8; c++ {
			if cfg&(1<<c) != 0 {
				out |= 1 << p[c]
			}
		}
		return out
	}
	for cfg := 0; cfg < 256; cfg++ {
		for _, p := range rotations {
			if caseOf[cfg] != caseOf[permute(cfg, p)] {
				t.Fatalf("case of %02x changes under rotation", cfg)
			}
		}
	}
}

func TestEmptyCaseOnlyForUniformCells(t *testing.T) {
	empty := EmptyCase()
	for cfg := 1; cfg < 255; cfg++ {
		if caseOf[cfg] == empty {
			t.Fatalf("non-uniform config %02x classified as empty", cfg)
		}
	}
	if caseOf[0] != empty || caseOf[255] != empty {
		t.Fatal("uniform configs must be the empty case")
	}
}

func TestExtractEmptyWhenIsoOutsideRange(t *testing.T) {
	f := sphereField(8)
	m := extract(f, 1000)
	if m.TriangleCount() != 0 {
		t.Fatalf("extracted %d triangles for out-of-range isovalue", m.TriangleCount())
	}
}

func TestExtractSphereAreaApproximation(t *testing.T) {
	// The isosurface of a distance field at radius r is a sphere; the total
	// triangle area should approximate 4 pi r^2.
	f := sphereField(33)
	r := 10.0
	m := extract(f, float32(r))
	if m.TriangleCount() == 0 {
		t.Fatal("no triangles extracted")
	}
	var area float64
	for i := 0; i < m.TriangleCount(); i++ {
		a, b, c := m.Vertices[3*i], m.Vertices[3*i+1], m.Vertices[3*i+2]
		area += float64(b.Sub(a).Cross(c.Sub(a)).Norm()) / 2
	}
	want := 4 * math.Pi * r * r
	if math.Abs(area-want)/want > 0.05 {
		t.Fatalf("sphere area %.1f, want ~%.1f (within 5%%)", area, want)
	}
}

func TestExtractVerticesNearIsovalue(t *testing.T) {
	// Every generated vertex must lie (by interpolation) on the isosurface:
	// re-sampling the field at the vertex should be close to the isovalue.
	f := sphereField(17)
	iso := float32(5.0)
	m := extract(f, iso)
	for _, v := range m.Vertices {
		got := f.Sample(float64(v[0]), float64(v[1]), float64(v[2]))
		if math.Abs(got-float64(iso)) > 0.2 {
			t.Fatalf("vertex %v samples to %v, want ~%v", v, got, iso)
		}
	}
}

func TestExtractWatertightEdges(t *testing.T) {
	// A closed surface has every edge shared by exactly two triangles.
	f := sphereField(17)
	m := extract(f, 5.0)
	type edge [2][3]int32
	quant := func(v viz.Vec3) [3]int32 {
		return [3]int32{int32(math.Round(float64(v[0]) * 4096)),
			int32(math.Round(float64(v[1]) * 4096)),
			int32(math.Round(float64(v[2]) * 4096))}
	}
	mk := func(a, b viz.Vec3) edge {
		qa, qb := quant(a), quant(b)
		if qa[0] > qb[0] || (qa[0] == qb[0] && (qa[1] > qb[1] || (qa[1] == qb[1] && qa[2] > qb[2]))) {
			qa, qb = qb, qa
		}
		return edge{qa, qb}
	}
	count := map[edge]int{}
	for i := 0; i < m.TriangleCount(); i++ {
		a, b, c := m.Vertices[3*i], m.Vertices[3*i+1], m.Vertices[3*i+2]
		if a == b || b == c || a == c {
			continue // degenerate sliver; contributes no area
		}
		count[mk(a, b)]++
		count[mk(b, c)]++
		count[mk(a, c)]++
	}
	bad := 0
	for _, n := range count {
		if n != 2 {
			bad++
		}
	}
	// Allow a tiny fraction of irregular edges from degenerate triangles at
	// exactly-on-lattice crossings.
	if frac := float64(bad) / float64(len(count)); frac > 0.01 {
		t.Fatalf("%.2f%% of edges not shared by exactly 2 triangles", frac*100)
	}
}

func TestBlockExtractionMatchesWholeField(t *testing.T) {
	f := sphereField(17)
	iso := float32(5.0)
	whole := extract(f, iso)
	blocks := grid.Decompose(f, 4)
	parts := ExtractBlocks(f, blocks, iso, 4)
	if whole.TriangleCount() != parts.TriangleCount() {
		t.Fatalf("block extraction produced %d triangles, whole-field %d",
			parts.TriangleCount(), whole.TriangleCount())
	}
}

func TestParallelExtractionDeterministic(t *testing.T) {
	f := sphereField(17)
	blocks := grid.Decompose(f, 4)
	a := ExtractBlocks(f, blocks, 5.0, 1)
	b := ExtractBlocks(f, blocks, 5.0, 8)
	if len(a.Vertices) != len(b.Vertices) {
		t.Fatalf("vertex counts differ: %d vs %d", len(a.Vertices), len(b.Vertices))
	}
	for i := range a.Vertices {
		if a.Vertices[i] != b.Vertices[i] {
			t.Fatalf("vertex %d differs between 1 and 8 workers", i)
		}
	}
}

func TestCaseHistogramSumsToCells(t *testing.T) {
	f := sphereField(9)
	b := grid.Block{NX: 8, NY: 8, NZ: 8}
	h := CaseHistogram(f, b, 3.0)
	total := 0
	for _, n := range h {
		total += n
	}
	if total != 512 {
		t.Fatalf("histogram sums to %d, want 512", total)
	}
	if h[EmptyCase()] == 512 {
		t.Fatal("everything empty for an interior isovalue")
	}
}

func TestTriangleCountMatchesActiveCells(t *testing.T) {
	// Cells classified empty must contribute zero triangles; active cells
	// at least one. Check via per-cell extraction.
	f := sphereField(9)
	iso := float32(3.0)
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				b := grid.Block{X0: x, Y0: y, Z0: z, NX: 1, NY: 1, NZ: 1}
				m := ExtractBlock(f, b, iso)
				empty := CanonicalCase(CellConfig(f, x, y, z, iso)) == EmptyCase()
				if empty && m.TriangleCount() != 0 {
					t.Fatalf("empty cell (%d,%d,%d) produced %d triangles", x, y, z, m.TriangleCount())
				}
				if !empty && m.TriangleCount() == 0 {
					t.Fatalf("active cell (%d,%d,%d) produced no triangles", x, y, z)
				}
			}
		}
	}
}

func TestExtractPropertyTriangleCountStableUnderValueScaling(t *testing.T) {
	// Scaling all samples and the isovalue by the same positive factor must
	// not change the topology (triangle count).
	f := sphereField(9)
	base := extract(f, 3.0).TriangleCount()
	prop := func(scale8 uint8) bool {
		s := 0.5 + float64(scale8)/64.0
		g := grid.NewScalarField(f.NX, f.NY, f.NZ)
		for i, v := range f.Data {
			g.Data[i] = v * float32(s)
		}
		return extract(g, float32(3.0*s)).TriangleCount() == base
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
