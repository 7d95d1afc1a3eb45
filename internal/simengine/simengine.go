// Package simengine is the computation being monitored and steered: a
// finite-volume compressible Euler solver in the style of the Virginia
// Hydrodynamics (VH1) code the paper instruments (Fig. 7). The solver uses
// dimensional splitting — the sweepx/sweepy/sweepz structure of VH1's main
// loop — with MUSCL (minmod-limited) reconstruction and HLL fluxes, and
// parallelizes pencil updates across goroutine workers.
//
// Two canonical problems are provided: the Sod shock tube (the paper's GUI
// example) with an exact Riemann solution for verification, and a stellar
// wind bow shock (the paper's Fig. 6 animation) formed by supersonic inflow
// around a rigid spherical obstacle. Both are driven at their -x end: the
// bow shock's ghost cells hold the wind, and Sod's hold its left state at
// rest, a reservoir that keeps the tube from draining through its
// transmissive ends. A left_pressure or left_density steer moves the
// reservoir with the left fifth of the tube, so the tube stays driven at
// the steered state.
//
// The pencil kernel skips work whose result it knows bit for bit: a
// pencil whose primitives are bitwise uniform is left as it is, and a
// pencil that repeats the primitives a worker last computed fluxes from
// reuses those fluxes (see sweepPencil for why both are exact). Sod is a
// 1-D problem on a 3-D grid, so its y and z pencils are all uniform and
// its x pencils all repeat.
package simengine

import (
	"math"
	"runtime"
	"sync"

	"ricsa/internal/fcp"
)

// Params are the steerable physics and numerics parameters. The RICSA GUI
// exposes these as "computation control parameters"; updating them mid-run
// is the steering operation.
type Params struct {
	Gamma float64 // ratio of specific heats
	CFL   float64 // Courant number in (0, 1)

	// Sod initial conditions: left/right density and pressure across the
	// diaphragm. The left state is also the reservoir held at the -x end.
	// Steering the pressure ratio mid-run re-energizes the tube.
	LeftDensity   float64
	LeftPressure  float64
	RightDensity  float64
	RightPressure float64

	// Bow shock wind parameters.
	WindDensity  float64
	WindVelocity float64
	WindPressure float64
}

// DefaultSodParams returns the classical Sod setup.
func DefaultSodParams() Params {
	return Params{
		Gamma:         1.4,
		CFL:           0.4,
		LeftDensity:   1.0,
		LeftPressure:  1.0,
		RightDensity:  0.125,
		RightPressure: 0.1,
	}
}

// DefaultBowShockParams returns a Mach ~3 wind.
func DefaultBowShockParams() Params {
	return Params{
		Gamma:        1.4,
		CFL:          0.35,
		WindDensity:  1.0,
		WindVelocity: 3.0,
		WindPressure: 0.6,
	}
}

// Problem selects the initial/boundary condition family.
type Problem int

// Problem kinds.
const (
	ProblemSod Problem = iota
	ProblemBowShock
)

// Sim is a running simulation instance.
type Sim struct {
	Problem    Problem
	NX, NY, NZ int

	mu    sync.Mutex
	par   Params
	rho   []float64
	mx    []float64 // momentum components
	my    []float64
	mz    []float64
	en    []float64 // total energy density
	solid []bool    // rigid obstacle mask (bow shock)
	time  float64
	cycle int
	dx    float64
	nWork int
	// queue submits sweep batches to the shared frame-compute pool; lazily
	// attached to the process default pool unless a session injects its own
	// via SetQueue. task is the reusable batch descriptor.
	queue *fcp.Queue
	task  sweepTask
	// scratch caches per-slot pencil buffers, reused across sweeps and
	// steps so the steady-state solver loop performs no allocation.
	scratch []*sweepScratch
	// pending holds a steering update applied at the next step boundary.
	pending *Params
}

// NewSod builds a shock tube along x. ny and nz may be 1 for a pure 1-D
// run or larger for a 3-D tube.
func NewSod(nx, ny, nz int, par Params) *Sim {
	s := newSim(ProblemSod, nx, ny, nz, par)
	s.initSod()
	return s
}

// NewBowShock builds a wind tunnel with a rigid sphere obstacle.
func NewBowShock(nx, ny, nz int, par Params) *Sim {
	s := newSim(ProblemBowShock, nx, ny, nz, par)
	s.initBowShock()
	return s
}

func newSim(pr Problem, nx, ny, nz int, par Params) *Sim {
	if nx < 3 {
		nx = 3
	}
	if ny < 1 {
		ny = 1
	}
	if nz < 1 {
		nz = 1
	}
	n := nx * ny * nz
	return &Sim{
		Problem: pr,
		NX:      nx, NY: ny, NZ: nz,
		par:   par,
		rho:   make([]float64, n),
		mx:    make([]float64, n),
		my:    make([]float64, n),
		mz:    make([]float64, n),
		en:    make([]float64, n),
		solid: make([]bool, n),
		dx:    1.0 / float64(nx),
		nWork: runtime.GOMAXPROCS(0),
	}
}

func (s *Sim) idx(x, y, z int) int { return (z*s.NY+y)*s.NX + x }

func (s *Sim) initSod() {
	half := s.NX / 2
	g1 := s.par.Gamma - 1
	for z := 0; z < s.NZ; z++ {
		for y := 0; y < s.NY; y++ {
			for x := 0; x < s.NX; x++ {
				i := s.idx(x, y, z)
				if x < half {
					s.rho[i] = s.par.LeftDensity
					s.en[i] = s.par.LeftPressure / g1
				} else {
					s.rho[i] = s.par.RightDensity
					s.en[i] = s.par.RightPressure / g1
				}
			}
		}
	}
}

func (s *Sim) initBowShock() {
	g1 := s.par.Gamma - 1
	cx := float64(s.NX) * 0.35
	cy := float64(s.NY) / 2
	cz := float64(s.NZ) / 2
	r := 0.12 * float64(minI(s.NY, s.NX))
	if s.NZ > 1 {
		r = 0.12 * float64(minI(s.NZ, minI(s.NY, s.NX)))
	}
	for z := 0; z < s.NZ; z++ {
		for y := 0; y < s.NY; y++ {
			for x := 0; x < s.NX; x++ {
				i := s.idx(x, y, z)
				s.rho[i] = s.par.WindDensity
				s.mx[i] = s.par.WindDensity * s.par.WindVelocity
				kin := 0.5 * s.par.WindDensity * s.par.WindVelocity * s.par.WindVelocity
				s.en[i] = s.par.WindPressure/g1 + kin
				dz := 0.0
				if s.NZ > 1 {
					dz = float64(z) - cz
				}
				dxr, dyr := float64(x)-cx, float64(y)-cy
				if math.Sqrt(dxr*dxr+dyr*dyr+dz*dz) < r {
					s.solid[i] = true
					s.mx[i], s.my[i], s.mz[i] = 0, 0, 0
					s.en[i] = s.par.WindPressure / g1
				}
			}
		}
	}
}

// Params returns the current steerable parameters.
func (s *Sim) Params() Params {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.par
}

// SetParams schedules a steering update; it takes effect at the next step
// boundary, like VH1 handling a NewSimulationParameters message between
// cycles (Fig. 7).
func (s *Sim) SetParams(p Params) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := p
	s.pending = &cp
}

// Time returns the simulated physical time. Safe to call while another
// goroutine drives Step (the web front ends poll it for status).
func (s *Sim) Time() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.time
}

// Cycle returns the number of completed steps. Safe to call while another
// goroutine drives Step.
func (s *Sim) Cycle() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cycle
}

// SetWorkers selects the sweep execution mode. With exactly one worker,
// sweeps run inline with zero per-step goroutine spawns — the
// allocation-flat mode the frame-stage benchmarks measure. Any other value
// (including <= 0) runs sweeps over the shared frame-compute pool, whose
// width — not n — bounds the parallelism. Call it between Steps, not
// concurrently with one.
func (s *Sim) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.nWork = n
}

// SetQueue attaches the Sim to a specific frame-compute pool queue — one
// queue per session keeps pool scheduling fair across sessions. A nil queue
// reverts to a lazily created queue on the process default pool. Call it
// between Steps, not concurrently with one.
func (s *Sim) SetQueue(q *fcp.Queue) { s.queue = q }

// queueFor returns the Sim's pool queue, attaching to the default pool on
// first pooled sweep.
func (s *Sim) queueFor() *fcp.Queue {
	if s.queue == nil {
		s.queue = fcp.Default().NewQueue()
	}
	return s.queue
}

// Step advances one cycle (sweepx, sweepy, sweepz) and returns the dt used.
func (s *Sim) Step() float64 {
	s.mu.Lock()
	if s.pending != nil {
		s.applySteering(*s.pending)
		s.pending = nil
	}
	par := s.par
	s.mu.Unlock()

	dt := s.stableDt(par)
	s.sweep(0, dt, par)
	if s.NY > 1 {
		s.sweep(1, dt, par)
	}
	if s.NZ > 1 {
		s.sweep(2, dt, par)
	}
	s.mu.Lock()
	s.time += dt
	s.cycle++
	s.mu.Unlock()
	return dt
}

// applySteering maps parameter changes onto the running state. Changing the
// Sod pressures re-pressurizes the corresponding halves (a visible steering
// effect); changing gamma or CFL simply alters subsequent dynamics; changing
// the wind re-seeds the inflow boundary (applied in sweeps).
func (s *Sim) applySteering(p Params) {
	old := s.par
	s.par = p
	if s.Problem == ProblemSod &&
		(p.LeftPressure != old.LeftPressure || p.RightPressure != old.RightPressure ||
			p.LeftDensity != old.LeftDensity || p.RightDensity != old.RightDensity) {
		// Re-drive the tube: reset the left fifth to the new left state,
		// which launches a fresh shock into the evolved interior.
		g1 := p.Gamma - 1
		for z := 0; z < s.NZ; z++ {
			for y := 0; y < s.NY; y++ {
				for x := 0; x < s.NX/5; x++ {
					i := s.idx(x, y, z)
					s.rho[i] = p.LeftDensity
					s.mx[i], s.my[i], s.mz[i] = 0, 0, 0
					s.en[i] = p.LeftPressure / g1
				}
			}
		}
	}
}

// stableDt computes the CFL-limited timestep from the global maximum
// signal speed. The largest |velocity| component is picked by
// compare-and-assign, which equals math.Max on every finite state.
//
//ricsa:noalloc
func (s *Sim) stableDt(par Params) float64 {
	maxSpeed := 1e-12
	g := par.Gamma
	g1 := g - 1
	for i, r := range s.rho {
		if s.solid[i] || r <= 0 {
			continue
		}
		u := s.mx[i] / r
		v := s.my[i] / r
		w := s.mz[i] / r
		kin := 0.5 * r * (u*u + v*v + w*w)
		p := g1 * (s.en[i] - kin)
		if p < 1e-12 {
			p = 1e-12
		}
		c := math.Sqrt(g * p / r)
		a := math.Abs(u)
		if b := math.Abs(v); b > a {
			a = b
		}
		if b := math.Abs(w); b > a {
			a = b
		}
		if sp := a + c; sp > maxSpeed {
			maxSpeed = sp
		}
	}
	return par.CFL * s.dx / maxSpeed
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
