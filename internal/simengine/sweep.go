package simengine

import (
	"math"

	"ricsa/internal/fcp"
)

// sweepTask adapts a sweep to the shared frame-compute pool: one item per
// pencil, per-worker scratch selected by the pool's slot index. Pencils
// along an axis touch disjoint cells and each pencil's float sequence is
// independent of which slot runs it, so a pooled sweep is bit-identical to
// the inline one at any pool width.
type sweepTask struct {
	s    *Sim
	axis int
	dt   float64
	par  Params
}

func (t *sweepTask) Run(worker, p int) {
	t.s.sweepPencil(t.axis, p, t.dt, t.par, t.s.scratch[worker])
}

// sweep applies the 1-D update along the given axis (0=x, 1=y, 2=z) to
// every pencil. This is VH1's sweepx/sweepy/sweepz with the role of
// "normal velocity" rotated per axis. With one worker the pencils run
// inline on the calling goroutine (the allocation-flat mode the frame
// benchmarks measure); otherwise they fan out over the shared
// frame-compute pool through the Sim's queue, competing fairly with other
// sessions' batches.
//
//ricsa:noalloc
func (s *Sim) sweep(axis int, dt float64, par Params) {
	nPencil, pLen := s.pencils(axis)
	if pLen < 3 {
		return
	}

	var q *fcp.Queue
	slots := 1
	if s.nWork != 1 && nPencil > 1 {
		q = s.queueFor()
		slots = q.Slots()
	}
	scratch := s.ensureScratch(slots)
	if slots == 1 {
		ws := scratch[0]
		for p := 0; p < nPencil; p++ {
			s.sweepPencil(axis, p, dt, par, ws)
		}
		return
	}
	s.task = sweepTask{s: s, axis: axis, dt: dt, par: par}
	q.Run(nPencil, &s.task)
	s.task = sweepTask{}
}

// ensureScratch returns per-worker pencil scratch sized for the longest
// axis, growing the cached set on first use (or after SetWorkers) and
// reusing it on every subsequent sweep. Only the sweep path touches the
// cache, and workers never share an entry, so no locking is needed.
func (s *Sim) ensureScratch(workers int) []*sweepScratch {
	need := max(s.NX, s.NY, s.NZ)
	if len(s.scratch) < workers {
		old := s.scratch
		s.scratch = make([]*sweepScratch, workers)
		copy(s.scratch, old)
	}
	for i := 0; i < workers; i++ {
		if s.scratch[i] == nil || s.scratch[i].n < need {
			s.scratch[i] = newSweepScratch(need)
		}
	}
	return s.scratch
}

// sweepScratch holds per-worker pencil buffers (2 ghost cells per side),
// sized for pencils up to n cells and reused across sweeps and steps.
//
// fR..fE outlive the pencil they were computed for: kRho..kPr hold the
// primitives, ghosts included, they were computed from, for a pencil of kM
// cells with ghosts under gamma kGamma (kM == 0: nothing cached). A pencil
// whose primitives match that key bit for bit reuses the fluxes. The two
// primitive sets trade places on a miss, so keeping the key costs no copy.
type sweepScratch struct {
	n                          int       // pencil capacity
	rho, un, ut1, ut2, pr      []float64 // primitives with ghosts
	kRho, kUn, kUt1, kUt2, kPr []float64 // primitives fR..fE were computed from
	kM                         int
	kGamma                     float64
	dRho, dUn, dUt1, dUt2, dPr []float64 // minmod-limited slope of each primitive, per cell
	fR, fMn, fMt1, fMt2, fE    []float64 // interface fluxes
	solid                      []bool
}

const ghosts = 2

func newSweepScratch(n int) *sweepScratch {
	g := n + 2*ghosts
	return &sweepScratch{
		n:   n,
		rho: make([]float64, g), un: make([]float64, g),
		ut1: make([]float64, g), ut2: make([]float64, g), pr: make([]float64, g),
		kRho: make([]float64, g), kUn: make([]float64, g),
		kUt1: make([]float64, g), kUt2: make([]float64, g), kPr: make([]float64, g),
		dRho: make([]float64, g), dUn: make([]float64, g),
		dUt1: make([]float64, g), dUt2: make([]float64, g), dPr: make([]float64, g),
		fR: make([]float64, n+1), fMn: make([]float64, n+1),
		fMt1: make([]float64, n+1), fMt2: make([]float64, n+1), fE: make([]float64, n+1),
		solid: make([]bool, g),
	}
}

// pencils returns how many pencils run along the axis and their length.
func (s *Sim) pencils(axis int) (nPencil, pLen int) {
	switch axis {
	case 0:
		return s.NY * s.NZ, s.NX
	case 1:
		return s.NX * s.NZ, s.NY
	default:
		return s.NX * s.NY, s.NZ
	}
}

// pencilBase returns the flat index of pencil p's first cell and the flat
// stride between consecutive cells along the axis, so the per-cell loops
// index with one add instead of a div/mod + idx() per cell.
func (s *Sim) pencilBase(axis, p int) (base, stride int) {
	switch axis {
	case 0:
		y := p % s.NY
		z := p / s.NY
		return (z*s.NY + y) * s.NX, 1
	case 1:
		x := p % s.NX
		z := p / s.NX
		return z*s.NY*s.NX + x, s.NX
	default:
		x := p % s.NX
		y := p / s.NX
		return y*s.NX + x, s.NX * s.NY
	}
}

// sweepPencil updates one pencil with MUSCL-HLL over the worker's scratch:
// gather primitives (plus ghosts and the solid mirror), one minmod-limited
// slope per cell and primitive, the HLL flux of every interface computed in
// place, and the conservative update. The per-cell loops make no calls and
// hold no closure.
//
// The kernel performs the same float operations on the same operands in the
// same order as the reference kept in kernel_ref_test.go (each cell's slope
// was computed twice there, as the left and as the right cell of an
// interface, from the identical expression), so the state it produces is
// bit-identical on every finite state. It departs from the reference only
// where that used math.Min/Max for the wave speeds: compare-and-assign
// differs for NaN operands and in the sign of a zero result. A ±0 wave
// speed takes an upwind branch that never reads it, and a state holding a
// NaN is already lost.
//
// Two short cuts skip work whose result is known bit for bit; both apply
// after the ghost fill and the mirror, so they see exactly the primitives
// the flux pass would read.
//
//   - A uniform pencil returns at once. When the pencil has no solid cell
//     and all five primitives, ghosts included, carry the same bits in
//     every cell, every interface sees the same two states and gets the
//     same flux bits, so every flux difference is +0 and the update adds
//     nlam·(+0) = −0, which leaves every value as it was. The test is on
//     bits because +0 and −0 compare equal, and a pencil mixing them does
//     change sign bits on the full path. A density above the 1e-12 floor
//     means the gather clamped none, so the update's clamp would not fire
//     either. This holds whenever the flux is finite; a non-finite flux
//     already turns the whole pencil to NaN on the full path.
//   - A pencil whose primitives (ghosts included), length and gamma match,
//     bit for bit, those the worker's fluxes were last computed from reuses
//     those fluxes. The slopes and fluxes read nothing else, so they would
//     come out the same; the update still reads this pencil's own conserved
//     values and solid flags.
//
// Sod is a 1-D problem on a 3-D grid, so every one of its y and z pencils
// is uniform and its x pencils repeat; the bow shock's free stream gives
// both short cuts some pencils too.
//
//ricsa:noalloc
func (s *Sim) sweepPencil(axis, p int, dt float64, par Params, ws *sweepScratch) {
	_, n := s.pencils(axis)
	g := par.Gamma
	g1 := g - 1

	// Hoist the per-axis velocity rotation out of the cell loops: mn is the
	// normal momentum component, mt1/mt2 the transverse ones.
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

	// Reslice the scratch once so the loops below index slices of known
	// length.
	m := n + 2*ghosts
	rho, un, ut1, ut2, pr := ws.rho[:m], ws.un[:m], ws.ut1[:m], ws.ut2[:m], ws.pr[:m]
	solid := ws.solid[:m]

	// Gather primitives with the axis-appropriate velocity rotation.
	anySolid := false
	for k, i := 0, base; k < n; k, i = k+1, i+stride {
		j := k + ghosts
		r := s.rho[i]
		if r < 1e-12 {
			r = 1e-12
		}
		u, t1, t2 := mn[i]/r, mt1[i]/r, mt2[i]/r
		kin := 0.5 * r * (u*u + t1*t1 + t2*t2)
		q := g1 * (s.en[i] - kin)
		if q < 1e-12 {
			q = 1e-12
		}
		rho[j], un[j], ut1[j], ut2[j], pr[j] = r, u, t1, t2, q
		sd := s.solid[i]
		solid[j] = sd
		anySolid = anySolid || sd
	}

	// Ghost cells: outflow (zero gradient) everywhere, except the -x end,
	// where each problem is driven: the bow shock's inflow is pinned to the
	// wind state, and Sod's to its left reservoir at rest, so the tube does
	// not drain through it.
	lo, hi := ghosts, n+ghosts-1
	for gi := 0; gi < ghosts; gi++ {
		h := hi + 1 + gi
		rho[gi], un[gi], ut1[gi], ut2[gi], pr[gi] = rho[lo], un[lo], ut1[lo], ut2[lo], pr[lo]
		rho[h], un[h], ut1[h], ut2[h], pr[h] = rho[hi], un[hi], ut1[hi], ut2[hi], pr[hi]
		solid[gi], solid[h] = false, false
	}
	if axis == 0 {
		for gi := 0; gi < ghosts; gi++ {
			switch s.Problem {
			case ProblemBowShock:
				rho[gi], un[gi], ut1[gi], ut2[gi], pr[gi] = par.WindDensity, par.WindVelocity, 0, 0, par.WindPressure
			case ProblemSod:
				rho[gi], un[gi], ut1[gi], ut2[gi], pr[gi] = par.LeftDensity, 0, 0, 0, par.LeftPressure
			}
		}
	}

	// Rigid cells reflect: treat a solid neighbor as a mirror with negated
	// normal velocity so fluxes vanish at the wall. Only pencils that cross
	// the obstacle pay for the pass.
	if anySolid {
		for j := ghosts; j < n+ghosts; j++ {
			if !solid[j] {
				continue
			}
			// Copy the nearest fluid state mirrored.
			if !solid[j-1] {
				rho[j], pr[j] = rho[j-1], pr[j-1]
				un[j] = -un[j-1]
				ut1[j], ut2[j] = 0, 0
			} else if !solid[j+1] {
				rho[j], pr[j] = rho[j+1], pr[j+1]
				un[j] = -un[j+1]
				ut1[j], ut2[j] = 0, 0
			} else {
				un[j], ut1[j], ut2[j] = 0, 0, 0
			}
		}
	}

	// The two short cuts (see above). A uniform pencil needs the update to
	// add exactly −0, i.e. nlam·(+0) to carry the sign bit alone.
	nlam := -(dt / s.dx)
	if !anySolid && math.Float64bits(nlam*0) == 1<<63 && rho[0] > 1e-12 &&
		uniformBits(rho) && uniformBits(un) && uniformBits(ut1) && uniformBits(ut2) && uniformBits(pr) {
		return
	}
	if !ws.holdsFluxes(m, g) {
		ws.fluxes(n, g)
	}

	// Conservative update, skipping solid cells.
	fR, fMn, fMt1, fMt2, fE := ws.fR[:n+1], ws.fMn[:n+1], ws.fMt1[:n+1], ws.fMt2[:n+1], ws.fE[:n+1]
	for k, i := 0, base; k < n; k, i = k+1, i+stride {
		if anySolid && solid[k+ghosts] {
			continue
		}
		r := s.rho[i] + nlam*(fR[k+1]-fR[k])
		if r < 1e-12 {
			r = 1e-12
		}
		s.rho[i] = r
		mn[i] += nlam * (fMn[k+1] - fMn[k])
		mt1[i] += nlam * (fMt1[k+1] - fMt1[k])
		mt2[i] += nlam * (fMt2[k+1] - fMt2[k])
		s.en[i] += nlam * (fE[k+1] - fE[k])
	}
}

// holdsFluxes reports whether fR..fE were computed from the primitives now
// in rho..pr, for a pencil of m cells with ghosts under gamma g.
//
//ricsa:noalloc
func (ws *sweepScratch) holdsFluxes(m int, g float64) bool {
	return m == ws.kM && math.Float64bits(g) == math.Float64bits(ws.kGamma) &&
		sameBits(ws.rho[:m], ws.kRho) && sameBits(ws.un[:m], ws.kUn) && sameBits(ws.ut1[:m], ws.kUt1) &&
		sameBits(ws.ut2[:m], ws.kUt2) && sameBits(ws.pr[:m], ws.kPr)
}

// fluxes computes the limited slopes and the HLL flux of every interface of
// the n-cell pencil in rho..pr into fR..fE, then keeps those primitives as
// the fluxes' key by trading them with the key buffers.
//
//ricsa:noalloc
func (ws *sweepScratch) fluxes(n int, g float64) {
	g1 := g - 1
	m := n + 2*ghosts
	rho, un, ut1, ut2, pr := ws.rho[:m], ws.un[:m], ws.ut1[:m], ws.ut2[:m], ws.pr[:m]

	// One limited slope per cell and primitive; interface f reads the slopes
	// of the cells on either side of it.
	dRho, dUn, dUt1, dUt2, dPr := ws.dRho[:m], ws.dUn[:m], ws.dUt1[:m], ws.dUt2[:m], ws.dPr[:m]
	limitedSlopes(dRho, rho)
	limitedSlopes(dUn, un)
	limitedSlopes(dUt1, ut1)
	limitedSlopes(dUt2, ut2)
	limitedSlopes(dPr, pr)

	// HLL flux (1-D Euler with two passive transverse momentum components)
	// at every interface, stored straight into the flux arrays.
	fR, fMn, fMt1, fMt2, fE := ws.fR[:n+1], ws.fMn[:n+1], ws.fMt1[:n+1], ws.fMt2[:n+1], ws.fE[:n+1]
	for f := range fR {
		jL := f + ghosts - 1
		jR := jL + 1
		rL, rR := rho[jL]+0.5*dRho[jL], rho[jR]-0.5*dRho[jR]
		uL, uR := un[jL]+0.5*dUn[jL], un[jR]-0.5*dUn[jR]
		t1L, t1R := ut1[jL]+0.5*dUt1[jL], ut1[jR]-0.5*dUt1[jR]
		t2L, t2R := ut2[jL]+0.5*dUt2[jL], ut2[jR]-0.5*dUt2[jR]
		pL, pR := pr[jL]+0.5*dPr[jL], pr[jR]-0.5*dPr[jR]
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
		cL := math.Sqrt(g * pL / rL)
		cR := math.Sqrt(g * pR / rR)
		sL, sR := uL-cL, uL+cL
		if x := uR - cR; x < sL {
			sL = x
		}
		if x := uR + cR; x > sR {
			sR = x
		}

		switch {
		case sL >= 0: // supersonic to the right: the left state's physical flux
			eL := pL/g1 + 0.5*rL*(uL*uL+t1L*t1L+t2L*t2L)
			mL := rL * uL
			fR[f], fMn[f], fMt1[f], fMt2[f], fE[f] = mL, mL*uL+pL, mL*t1L, mL*t2L, (eL+pL)*uL
		case sR <= 0: // supersonic to the left: the right state's
			eR := pR/g1 + 0.5*rR*(uR*uR+t1R*t1R+t2R*t2R)
			mR := rR * uR
			fR[f], fMn[f], fMt1[f], fMt2[f], fE[f] = mR, mR*uR+pR, mR*t1R, mR*t2R, (eR+pR)*uR
		default:
			eL := pL/g1 + 0.5*rL*(uL*uL+t1L*t1L+t2L*t2L)
			eR := pR/g1 + 0.5*rR*(uR*uR+t1R*t1R+t2R*t2R)
			mL, mR := rL*uL, rR*uR
			inv := 1 / (sR - sL)
			ss := sL * sR
			fR[f] = (sR*mL - sL*mR + ss*(rR-rL)) * inv
			fMn[f] = (sR*(mL*uL+pL) - sL*(mR*uR+pR) + ss*(mR-mL)) * inv
			fMt1[f] = (sR*(mL*t1L) - sL*(mR*t1R) + ss*(rR*t1R-rL*t1L)) * inv
			fMt2[f] = (sR*(mL*t2L) - sL*(mR*t2R) + ss*(rR*t2R-rL*t2L)) * inv
			fE[f] = (sR*((eL+pL)*uL) - sL*((eR+pR)*uR) + ss*(eR-eL)) * inv
		}
	}

	ws.rho, ws.kRho = ws.kRho, ws.rho
	ws.un, ws.kUn = ws.kUn, ws.un
	ws.ut1, ws.kUt1 = ws.kUt1, ws.ut1
	ws.ut2, ws.kUt2 = ws.kUt2, ws.ut2
	ws.pr, ws.kPr = ws.kPr, ws.pr
	ws.kM, ws.kGamma = m, g
}

// uniformBits reports whether every element of a has the bits of a[0], so
// +0 and −0 differ.
func uniformBits(a []float64) bool {
	b := math.Float64bits(a[0])
	for _, v := range a[1:] {
		if math.Float64bits(v) != b {
			return false
		}
	}
	return true
}

// sameBits reports whether b starts with the bits of a.
func sameBits(a, b []float64) bool {
	b = b[:len(a)]
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// limitedSlopes writes sl[j] = minmod(a[j]-a[j-1], a[j+1]-a[j]) for every
// cell with both neighbours, carrying each difference into the next cell.
//
//ricsa:noalloc
func limitedSlopes(sl, a []float64) {
	sl = sl[:len(a)]
	d0 := a[1] - a[0]
	for j := 1; j < len(a)-1; j++ {
		d1 := a[j+1] - a[j]
		sl[j] = minmod(d0, d1)
		d0 = d1
	}
}

func minmod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}
