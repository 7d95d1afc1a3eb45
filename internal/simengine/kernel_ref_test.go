package simengine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// This file keeps the pencil kernel the solver shipped with through commit
// 75bbaf0 (closure recon, out-of-line HLL, math.Min/Max) as a test-only
// reference, verbatim except for the ref prefix. The production kernel in
// sweep.go must perform the same float operations on the same operands in
// the same order; the tests below hold it to that bit for bit.

func (s *Sim) refSweepPencil(axis, p int, dt float64, par Params, ws *sweepScratch) {
	var n int
	switch axis {
	case 0:
		n = s.NX
	case 1:
		n = s.NY
	default:
		n = s.NZ
	}
	g := par.Gamma
	g1 := g - 1

	var mn, mt1, mt2 []float64
	switch axis {
	case 0:
		mn, mt1, mt2 = s.mx, s.my, s.mz
	case 1:
		mn, mt1, mt2 = s.my, s.mx, s.mz
	default:
		mn, mt1, mt2 = s.mz, s.mx, s.my
	}
	base, stride := s.pencilBase(axis, p)

	// Gather primitives with the axis-appropriate velocity rotation.
	for k, i := 0, base; k < n; k, i = k+1, i+stride {
		j := k + ghosts
		r := s.rho[i]
		if r < 1e-12 {
			r = 1e-12
		}
		un, ut1, ut2 := mn[i]/r, mt1[i]/r, mt2[i]/r
		kin := 0.5 * r * (un*un + ut1*ut1 + ut2*ut2)
		pr := g1 * (s.en[i] - kin)
		if pr < 1e-12 {
			pr = 1e-12
		}
		ws.rho[j], ws.un[j], ws.ut1[j], ws.ut2[j], ws.pr[j] = r, un, ut1, ut2, pr
		ws.solid[j] = s.solid[i]
	}

	s.refFillGhosts(axis, n, par, ws)

	// Rigid cells reflect: treat a solid neighbor as a mirror with negated
	// normal velocity so fluxes vanish at the wall.
	for j := ghosts; j < n+ghosts; j++ {
		if !ws.solid[j] {
			continue
		}
		// Copy the nearest fluid state mirrored.
		if j > 0 && !ws.solid[j-1] {
			ws.rho[j], ws.pr[j] = ws.rho[j-1], ws.pr[j-1]
			ws.un[j] = -ws.un[j-1]
			ws.ut1[j], ws.ut2[j] = 0, 0
		} else if j+1 < len(ws.solid) && !ws.solid[j+1] {
			ws.rho[j], ws.pr[j] = ws.rho[j+1], ws.pr[j+1]
			ws.un[j] = -ws.un[j+1]
			ws.ut1[j], ws.ut2[j] = 0, 0
		} else {
			ws.un[j], ws.ut1[j], ws.ut2[j] = 0, 0, 0
		}
	}

	// Interface fluxes with minmod-limited reconstruction.
	recon := func(arr []float64, j int) (left, right float64) {
		sl := minmod(arr[j]-arr[j-1], arr[j+1]-arr[j])
		sr := minmod(arr[j+1]-arr[j], arr[j+2]-arr[j+1])
		return arr[j] + 0.5*sl, arr[j+1] - 0.5*sr
	}
	for f := 0; f <= n; f++ {
		jL := f + ghosts - 1
		rL, rR := recon(ws.rho, jL)
		uL, uR := recon(ws.un, jL)
		t1L, t1R := recon(ws.ut1, jL)
		t2L, t2R := recon(ws.ut2, jL)
		pL, pR := recon(ws.pr, jL)
		if rL < 1e-12 {
			rL = 1e-12
		}
		if rR < 1e-12 {
			rR = 1e-12
		}
		if pL < 1e-12 {
			pL = 1e-12
		}
		if pR < 1e-12 {
			pR = 1e-12
		}
		refHLL(g, rL, uL, t1L, t2L, pL, rR, uR, t1R, t2R, pR,
			&ws.fR[f], &ws.fMn[f], &ws.fMt1[f], &ws.fMt2[f], &ws.fE[f])
	}

	// Conservative update, skipping solid cells.
	lam := dt / s.dx
	for k, i := 0, base; k < n; k, i = k+1, i+stride {
		if s.solid[i] {
			continue
		}
		dR := -lam * (ws.fR[k+1] - ws.fR[k])
		dMn := -lam * (ws.fMn[k+1] - ws.fMn[k])
		dMt1 := -lam * (ws.fMt1[k+1] - ws.fMt1[k])
		dMt2 := -lam * (ws.fMt2[k+1] - ws.fMt2[k])
		dE := -lam * (ws.fE[k+1] - ws.fE[k])
		s.rho[i] += dR
		if s.rho[i] < 1e-12 {
			s.rho[i] = 1e-12
		}
		mn[i] += dMn
		mt1[i] += dMt1
		mt2[i] += dMt2
		s.en[i] += dE
	}
}

func (s *Sim) refFillGhosts(axis, n int, par Params, ws *sweepScratch) {
	for gi := 0; gi < ghosts; gi++ {
		// Low side.
		ws.rho[gi], ws.un[gi] = ws.rho[ghosts], ws.un[ghosts]
		ws.ut1[gi], ws.ut2[gi], ws.pr[gi] = ws.ut1[ghosts], ws.ut2[ghosts], ws.pr[ghosts]
		ws.solid[gi] = false
		// High side.
		hi := n + ghosts + gi
		ws.rho[hi], ws.un[hi] = ws.rho[n+ghosts-1], ws.un[n+ghosts-1]
		ws.ut1[hi], ws.ut2[hi], ws.pr[hi] = ws.ut1[n+ghosts-1], ws.ut2[n+ghosts-1], ws.pr[n+ghosts-1]
		ws.solid[hi] = false
	}
	if s.Problem == ProblemBowShock && axis == 0 {
		for gi := 0; gi < ghosts; gi++ {
			ws.rho[gi] = par.WindDensity
			ws.un[gi] = par.WindVelocity
			ws.ut1[gi], ws.ut2[gi] = 0, 0
			ws.pr[gi] = par.WindPressure
		}
	}
}

func refHLL(g, rL, uL, t1L, t2L, pL, rR, uR, t1R, t2R, pR float64,
	fR, fMn, fMt1, fMt2, fE *float64) {
	cL := math.Sqrt(g * pL / rL)
	cR := math.Sqrt(g * pR / rR)
	sL := math.Min(uL-cL, uR-cR)
	sR := math.Max(uL+cL, uR+cR)

	eL := pL/(g-1) + 0.5*rL*(uL*uL+t1L*t1L+t2L*t2L)
	eR := pR/(g-1) + 0.5*rR*(uR*uR+t1R*t1R+t2R*t2R)

	// Physical fluxes.
	fRL, fMnL := rL*uL, rL*uL*uL+pL
	fMt1L, fMt2L := rL*uL*t1L, rL*uL*t2L
	fEL := (eL + pL) * uL
	fRR, fMnR := rR*uR, rR*uR*uR+pR
	fMt1R, fMt2R := rR*uR*t1R, rR*uR*t2R
	fER := (eR + pR) * uR

	switch {
	case sL >= 0:
		*fR, *fMn, *fMt1, *fMt2, *fE = fRL, fMnL, fMt1L, fMt2L, fEL
	case sR <= 0:
		*fR, *fMn, *fMt1, *fMt2, *fE = fRR, fMnR, fMt1R, fMt2R, fER
	default:
		inv := 1 / (sR - sL)
		*fR = (sR*fRL - sL*fRR + sL*sR*(rR-rL)) * inv
		*fMn = (sR*fMnL - sL*fMnR + sL*sR*(rR*uR-rL*uL)) * inv
		*fMt1 = (sR*fMt1L - sL*fMt1R + sL*sR*(rR*t1R-rL*t1L)) * inv
		*fMt2 = (sR*fMt2L - sL*fMt2R + sL*sR*(rR*t2R-rL*t2L)) * inv
		*fE = (sR*fEL - sL*fER + sL*sR*(eR-eL)) * inv
	}
}

// refStableDt is the CFL reduction as shipped through 75bbaf0, with
// math.Max over the three |velocity| components.
func (s *Sim) refStableDt(par Params) float64 {
	maxSpeed := 1e-12
	g := par.Gamma
	for i := range s.rho {
		if s.solid[i] {
			continue
		}
		r := s.rho[i]
		if r <= 0 {
			continue
		}
		u := s.mx[i] / r
		v := s.my[i] / r
		w := s.mz[i] / r
		kin := 0.5 * r * (u*u + v*v + w*w)
		p := (g - 1) * (s.en[i] - kin)
		if p < 1e-12 {
			p = 1e-12
		}
		c := math.Sqrt(g * p / r)
		sp := math.Max(math.Abs(u), math.Max(math.Abs(v), math.Abs(w))) + c
		if sp > maxSpeed {
			maxSpeed = sp
		}
	}
	return par.CFL * s.dx / maxSpeed
}

// randomizeState overwrites the conserved fields with a seeded random
// state: smooth-ish background, random velocities in every direction,
// shocks (random jumps), and a sprinkling of cells at or below the 1e-12
// density and pressure floors. solidMode places obstacle cells: 0 keeps the
// problem's own mask, 1 adds solids at both ends of every pencil and runs
// of adjacent solids.
func randomizeState(s *Sim, rng *rand.Rand, solidMode int) {
	g1 := s.par.Gamma - 1
	for i := range s.rho {
		r := 0.05 + 2*rng.Float64()
		if rng.Intn(7) == 0 {
			r *= 10 // density jump
		}
		u := 4*rng.Float64() - 2
		v := 4*rng.Float64() - 2
		w := 4*rng.Float64() - 2
		p := 0.01 + 3*rng.Float64()
		switch rng.Intn(40) {
		case 0:
			r = 1e-12 // at the density floor
		case 1:
			r = 5e-13 // below it: the gather clamps
		case 2:
			p = 1e-12
		case 3:
			p = -0.5 // negative pressure: clamped to the floor
		case 4:
			u, v, w = 0, 0, 0 // a resting cell: zero slopes, ±0 wave speeds
		}
		s.rho[i] = r
		s.mx[i], s.my[i], s.mz[i] = r*u, r*v, r*w
		s.en[i] = p/g1 + 0.5*r*(u*u+v*v+w*w)
	}
	if solidMode == 1 {
		for z := 0; z < s.NZ; z++ {
			for y := 0; y < s.NY; y++ {
				for x := 0; x < s.NX; x++ {
					end := x == 0 || x == s.NX-1 || (s.NY > 1 && (y == 0 || y == s.NY-1)) ||
						(s.NZ > 1 && (z == 0 || z == s.NZ-1))
					if (end && rng.Intn(3) == 0) || rng.Intn(9) == 0 {
						i := s.idx(x, y, z)
						s.solid[i] = true
						// A run of adjacent solids along x.
						if x+1 < s.NX && rng.Intn(2) == 0 {
							s.solid[i+1] = true
						}
					}
				}
			}
		}
	}
}

// cloneState copies every field the kernel reads or writes.
func cloneState(s *Sim) *Sim {
	c := newSim(s.Problem, s.NX, s.NY, s.NZ, s.par)
	c.nWork = s.nWork
	copy(c.rho, s.rho)
	copy(c.mx, s.mx)
	copy(c.my, s.my)
	copy(c.mz, s.mz)
	copy(c.en, s.en)
	copy(c.solid, s.solid)
	return c
}

func diffStates(t *testing.T, what string, got, want *Sim) {
	t.Helper()
	fields := []struct {
		name string
		a, b []float64
	}{
		{"rho", got.rho, want.rho}, {"mx", got.mx, want.mx}, {"my", got.my, want.my},
		{"mz", got.mz, want.mz}, {"en", got.en, want.en},
	}
	for _, f := range fields {
		for i := range f.a {
			if math.Float64bits(f.a[i]) != math.Float64bits(f.b[i]) {
				t.Fatalf("%s: %s[%d] = %x (%v), reference %x (%v)", what, f.name, i,
					math.Float64bits(f.a[i]), f.a[i], math.Float64bits(f.b[i]), f.b[i])
			}
		}
	}
}

// TestSweepKernelMatchesReference runs the production pencil kernel and the
// reference on copies of the same seeded random state, along each axis, and
// compares all five conserved fields bit for bit; stableDt likewise.
func TestSweepKernelMatchesReference(t *testing.T) {
	sizes := [][3]int{{33, 1, 1}, {20, 13, 1}, {24, 16, 12}, {3, 3, 3}, {7, 4, 5}}
	for _, bow := range []bool{false, true} {
		for _, sz := range sizes {
			for solidMode := 0; solidMode < 2; solidMode++ {
				for seed := int64(1); seed <= 4; seed++ {
					name := fmt.Sprintf("bow=%v/%dx%dx%d/solids=%d/seed=%d", bow, sz[0], sz[1], sz[2], solidMode, seed)
					var s *Sim
					if bow {
						s = NewBowShock(sz[0], sz[1], sz[2], DefaultBowShockParams())
					} else {
						s = NewSod(sz[0], sz[1], sz[2], DefaultSodParams())
					}
					s.SetWorkers(1)
					randomizeState(s, rand.New(rand.NewSource(seed)), solidMode)
					par := s.par

					dt := s.stableDt(par)
					if ref := s.refStableDt(par); math.Float64bits(dt) != math.Float64bits(ref) {
						t.Fatalf("%s: stableDt %v, reference %v", name, dt, ref)
					}
					for axis := 0; axis < 3; axis++ {
						nPencil, pLen := s.pencils(axis)
						if pLen < 3 {
							continue
						}
						got, want := cloneState(s), cloneState(s)
						ws := newSweepScratch(max(s.NX, s.NY, s.NZ))
						for p := 0; p < nPencil; p++ {
							got.sweepPencil(axis, p, dt, par, ws)
						}
						wsRef := newSweepScratch(max(s.NX, s.NY, s.NZ))
						for p := 0; p < nPencil; p++ {
							want.refSweepPencil(axis, p, dt, par, wsRef)
						}
						diffStates(t, fmt.Sprintf("%s/axis=%d", name, axis), got, want)
					}
					// And through the public entry point, several steps deep:
					// Step against a loop of reference sweeps.
					got, want := cloneState(s), cloneState(s)
					wsRef := newSweepScratch(max(s.NX, s.NY, s.NZ))
					for step := 0; step < 3; step++ {
						got.Step()
						rdt := want.refStableDt(par)
						for axis := 0; axis < 3; axis++ {
							nPencil, pLen := want.pencils(axis)
							if pLen < 3 {
								continue
							}
							for p := 0; p < nPencil; p++ {
								want.refSweepPencil(axis, p, rdt, par, wsRef)
							}
						}
					}
					diffStates(t, name+"/3 steps", got, want)
				}
			}
		}
	}
}

// stateChecksum is FNV-1a 64 over the little-endian bits of rho, mx, my,
// mz, en in that order.
func stateChecksum(s *Sim) string {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range [][]float64{s.rho, s.mx, s.my, s.mz, s.en} {
		for _, v := range f {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenStateChecksums pins whole-run solver states to checksums
// recorded at commit 75bbaf0 (the kernel before the rewrite), so "same
// numbers" is checked against history and not only against the reference
// copy above. amd64 only: arm64 fuses multiply-adds and rounds differently.
func TestGoldenStateChecksums(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden checksums were recorded on amd64")
	}
	cases := []struct {
		name  string
		sim   *Sim
		steps int
		steer int // step before which LeftPressure=3 is steered; <0 for never
		want  string
	}{
		{"sod 64x32x32 steered", NewSod(64, 32, 32, DefaultSodParams()), 12, 6, "ac9a1b39df8d7b25"},
		{"bowshock 48x24x20", NewBowShock(48, 24, 20, DefaultBowShockParams()), 40, -1, "3a0f4fefaf706cb9"},
		{"sod 33x1x1", NewSod(33, 1, 1, DefaultSodParams()), 40, -1, "1550a66819cfca39"},
		{"bowshock 20x13x1", NewBowShock(20, 13, 1, DefaultBowShockParams()), 40, -1, "9dbda689d7fff5ce"},
	}
	for _, c := range cases {
		c.sim.SetWorkers(1)
		for step := 0; step < c.steps; step++ {
			if step == c.steer {
				p := c.sim.Params()
				p.LeftPressure = 3
				c.sim.SetParams(p)
			}
			c.sim.Step()
		}
		if got := stateChecksum(c.sim); got != c.want {
			t.Errorf("%s: state checksum %s, want %s", c.name, got, c.want)
		}
	}
}
