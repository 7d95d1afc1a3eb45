package simengine

import (
	"math"
	"testing"
)

func runSodTo(t *testing.T, s *Sim, tEnd float64) {
	t.Helper()
	for s.Time() < tEnd {
		dt := s.Step()
		if dt <= 0 || math.IsNaN(dt) {
			t.Fatalf("bad dt %v at cycle %d", dt, s.Cycle())
		}
		if s.Cycle() > 100000 {
			t.Fatal("runaway step count")
		}
	}
}

func TestSodMatchesExactRiemann(t *testing.T) {
	par := DefaultSodParams()
	s := NewSod(400, 1, 1, par)
	tEnd := 0.2
	runSodTo(t, s, tEnd)

	prof := s.DensityProfile(0, 0)
	// Compare at interior points away from the initial transient noise.
	var l1, ref float64
	for x := 0; x < s.NX; x++ {
		pos := (float64(x) + 0.5) / float64(s.NX)
		xi := (pos - 0.5) / s.Time()
		exact, _, _ := SodExact(xi, par)
		l1 += math.Abs(prof[x] - exact)
		ref += exact
	}
	rel := l1 / ref
	if rel > 0.03 {
		t.Fatalf("Sod L1 density error %.3f%%, want < 3%%", rel*100)
	}
}

func TestSodExactStarRegionKnownValues(t *testing.T) {
	// Canonical Sod: p* = 0.30313, u* = 0.92745 (Toro, Table 4.2).
	par := DefaultSodParams()
	g := par.Gamma
	cL := math.Sqrt(g * par.LeftPressure / par.LeftDensity)
	cR := math.Sqrt(g * par.RightPressure / par.RightDensity)
	pStar, uStar := starRegion(g, par.LeftDensity, 0, par.LeftPressure, cL,
		par.RightDensity, 0, par.RightPressure, cR)
	if math.Abs(pStar-0.30313) > 5e-4 {
		t.Fatalf("p* = %.5f, want 0.30313", pStar)
	}
	if math.Abs(uStar-0.92745) > 5e-4 {
		t.Fatalf("u* = %.5f, want 0.92745", uStar)
	}
}

func TestSodConservesMassWithOutflowBeforeWavesExit(t *testing.T) {
	s := NewSod(200, 1, 1, DefaultSodParams())
	m0 := s.TotalMass()
	runSodTo(t, s, 0.1) // waves still inside the tube
	m1 := s.TotalMass()
	if math.Abs(m1-m0)/m0 > 1e-6 {
		t.Fatalf("mass drifted %.2e before waves reached boundaries", (m1-m0)/m0)
	}
}

func TestSod3DAgreesWith1D(t *testing.T) {
	par := DefaultSodParams()
	s1 := NewSod(128, 1, 1, par)
	s3 := NewSod(128, 8, 8, par)
	runSodTo(t, s1, 0.1)
	runSodTo(t, s3, 0.1)
	// Pick the 3-D center pencil; a planar problem must stay planar.
	p1 := s1.DensityProfile(0, 0)
	p3 := s3.DensityProfile(4, 4)
	// Times may differ slightly; compare at matching similarity positions
	// loosely via max abs difference.
	var maxd float64
	for x := range p1 {
		if d := math.Abs(p1[x] - p3[x]); d > maxd {
			maxd = d
		}
	}
	if maxd > 0.05 {
		t.Fatalf("3-D tube deviates from 1-D by %.3f", maxd)
	}
}

func TestSodPlanarSymmetryPreserved(t *testing.T) {
	s := NewSod(64, 6, 6, DefaultSodParams())
	runSodTo(t, s, 0.05)
	base := s.DensityProfile(0, 0)
	for y := 0; y < 6; y++ {
		for z := 0; z < 6; z++ {
			prof := s.DensityProfile(y, z)
			for x := range prof {
				if math.Abs(prof[x]-base[x]) > 1e-9 {
					t.Fatalf("pencil (%d,%d) deviates at x=%d", y, z, x)
				}
			}
		}
	}
}

func TestDensityPositive(t *testing.T) {
	s := NewSod(128, 1, 1, DefaultSodParams())
	runSodTo(t, s, 0.2)
	for i, r := range s.rho {
		if r <= 0 || math.IsNaN(r) {
			t.Fatalf("density %v at cell %d", r, i)
		}
	}
}

func TestSteeringChangesDynamics(t *testing.T) {
	par := DefaultSodParams()
	a := NewSod(128, 1, 1, par)
	b := NewSod(128, 1, 1, par)
	runSodTo(t, a, 0.08)
	runSodTo(t, b, 0.08)

	// Steer b: raise the driver pressure sharply.
	steered := b.Params()
	steered.LeftPressure = 10
	b.SetParams(steered)

	runSodTo(t, a, 0.14)
	runSodTo(t, b, 0.14)

	pa := a.DensityProfile(0, 0)
	pb := b.DensityProfile(0, 0)
	var maxd float64
	for x := range pa {
		if d := math.Abs(pa[x] - pb[x]); d > maxd {
			maxd = d
		}
	}
	if maxd < 0.1 {
		t.Fatalf("steering had no visible effect (max diff %.4f)", maxd)
	}
	if b.Params().LeftPressure != 10 {
		t.Fatal("steered parameter not recorded")
	}
}

func TestSteeringAppliedAtStepBoundary(t *testing.T) {
	s := NewSod(64, 1, 1, DefaultSodParams())
	p := s.Params()
	p.CFL = 0.2
	s.SetParams(p)
	if s.Params().CFL == 0.2 {
		t.Fatal("parameter applied before step boundary")
	}
	s.Step()
	if s.Params().CFL != 0.2 {
		t.Fatal("parameter not applied at step boundary")
	}
}

func TestBowShockFormsDensityPileUp(t *testing.T) {
	s := NewBowShock(96, 48, 1, DefaultBowShockParams())
	for i := 0; i < 300; i++ {
		s.Step()
	}
	// Upstream of the obstacle (x slightly less than 0.35*NX) density must
	// exceed the wind density: the bow shock compression.
	den := s.Density()
	cy := s.NY / 2
	obstacleX := int(0.35 * float64(s.NX))
	var maxUp float64
	for x := 2; x < obstacleX-2; x++ {
		if v := float64(den.At(x, cy, 0)); v > maxUp {
			maxUp = v
		}
	}
	if maxUp < 1.5*DefaultBowShockParams().WindDensity {
		t.Fatalf("no bow shock: max upstream density %.2f", maxUp)
	}
}

func TestBowShockObstacleStaysQuiet(t *testing.T) {
	s := NewBowShock(64, 32, 1, DefaultBowShockParams())
	for i := 0; i < 100; i++ {
		s.Step()
	}
	for i := range s.solid {
		if !s.solid[i] {
			continue
		}
		if s.mx[i] != 0 && math.Abs(s.mx[i]) > 1e-9 {
			t.Fatal("momentum leaked into the rigid obstacle")
		}
	}
}

func TestSnapshotsShapes(t *testing.T) {
	s := NewBowShock(32, 16, 8, DefaultBowShockParams())
	s.Step()
	d := s.Density()
	p := s.PressureInto(nil)
	if d.NX != 32 || d.NY != 16 || d.NZ != 8 {
		t.Fatal("density shape")
	}
	if p.NX != 32 || len(p.Data) != len(d.Data) {
		t.Fatal("pressure shape")
	}
	for _, x := range p.Data {
		if x < 0 || math.IsNaN(float64(x)) {
			t.Fatal("negative or NaN pressure in snapshot")
		}
	}
}

func TestExactSolutionRegions(t *testing.T) {
	par := DefaultSodParams()
	// Far left: undisturbed left state.
	r, u, p := SodExact(-10, par)
	if r != par.LeftDensity || u != 0 || p != par.LeftPressure {
		t.Fatal("far-left state wrong")
	}
	// Far right: undisturbed right state.
	r, u, p = SodExact(10, par)
	if r != par.RightDensity || u != 0 || p != par.RightPressure {
		t.Fatal("far-right state wrong")
	}
	// Density must be monotone nonincreasing across the rarefaction fan.
	prev := math.Inf(1)
	for xi := -1.2; xi < -0.2; xi += 0.01 {
		r, _, _ := SodExact(xi, par)
		if r > prev+1e-12 {
			t.Fatalf("density increased inside rarefaction at xi=%.2f", xi)
		}
		prev = r
	}
}
