package dataset

import (
	"testing"

	"ricsa/internal/grid"
	"ricsa/internal/viz"
	"ricsa/internal/viz/marchingcubes"
)

func TestPaperDatasetSizesExact(t *testing.T) {
	want := map[string]int{
		"Jet":      16 << 20,
		"Rage":     64 << 20,
		"Viswoman": 108 << 20,
	}
	for _, s := range PaperDatasets() {
		if got := s.SizeBytes(); got != want[s.Name] {
			t.Fatalf("%s: %d bytes, want %d", s.Name, got, want[s.Name])
		}
	}
}

func TestScaledPreservesMinimumDims(t *testing.T) {
	s := JetSpec.Scaled(1000)
	if s.NX < 8 || s.NY < 8 || s.NZ < 8 {
		t.Fatalf("scaled dims too small: %dx%dx%d", s.NX, s.NY, s.NZ)
	}
	if JetSpec.Scaled(0) != JetSpec.Scaled(1) {
		t.Fatal("div < 1 should behave as 1")
	}
}

func TestGeneratorsProduceIsosurfaces(t *testing.T) {
	for _, s := range []Spec{JetSpec.Scaled(8), RageSpec.Scaled(8), VisWomanSpec.Scaled(8)} {
		f := Generate(s)
		iso := DefaultIsovalue(s.Kind)
		mn, mx := f.MinMax()
		if !(mn < iso && iso < mx) {
			t.Fatalf("%s: isovalue %v outside range [%v, %v]", s.Name, iso, mn, mx)
		}
		m := &viz.Mesh{}
		marchingcubes.ExtractInto(m, f, iso)
		if m.TriangleCount() == 0 {
			t.Fatalf("%s: default isovalue extracts nothing", s.Name)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Generate(RageSpec.Scaled(16))
	b := Generate(RageSpec.Scaled(16))
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("generator is not deterministic")
		}
	}
}

func TestGeneratorsAreSparse(t *testing.T) {
	// The paper's octree culling only pays off when many blocks miss the
	// isosurface; our analogues must share that sparsity.
	for _, s := range []Spec{JetSpec.Scaled(8), RageSpec.Scaled(8)} {
		f := Generate(s)
		blocks := grid.Decompose(f, 8)
		active := grid.ActiveBlocks(blocks, DefaultIsovalue(s.Kind))
		frac := float64(len(active)) / float64(len(blocks))
		if frac > 0.8 {
			t.Fatalf("%s: %.0f%% of blocks active; generator lacks sparsity", s.Name, frac*100)
		}
		if frac == 0 {
			t.Fatalf("%s: no active blocks", s.Name)
		}
	}
}

func TestVelocityFromScalarNonTrivial(t *testing.T) {
	f := Generate(JetSpec.Scaled(16))
	vf := VelocityFromScalar(f)
	if len(vf.U) != len(f.Data) || len(vf.V) != len(f.Data) || len(vf.W) != len(f.Data) {
		t.Fatalf("vector field has %d/%d/%d samples, want %d", len(vf.U), len(vf.V), len(vf.W), len(f.Data))
	}
	var nonzero bool
	for i := range vf.U {
		if vf.U[i] != 0 || vf.V[i] != 0 || vf.W[i] != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("velocity field is identically zero")
	}
}
