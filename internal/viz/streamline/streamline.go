// Package streamline traces integral curves of a vector field with
// fourth-order Runge-Kutta advection, the third visualization technique in
// the paper's cost analysis (Eq. 8):
//
//	t_streamline = n_seeds x n_steps x T_advection
//
// Each seed advects for a fixed number of steps (or until it leaves the
// domain or stagnates), so the cost model's n_seeds x n_steps product is an
// upper bound the measured time approaches on well-behaved fields.
package streamline

import (
	"runtime"
	"sync"

	"ricsa/internal/grid"
	"ricsa/internal/viz"
)

// Line is one traced streamline.
type Line struct {
	Points []viz.Vec3
}

// Options configures tracing.
type Options struct {
	// Steps is the advection step budget per seed (the paper's n_steps).
	Steps int
	// H is the RK4 step size in voxel units.
	H float64
	// MinSpeed stops a line when the local speed drops below it.
	MinSpeed float64
	// Workers is the parallel width; <=0 means GOMAXPROCS.
	Workers int
}

// DefaultOptions traces 256 steps with step size 0.5.
func DefaultOptions() Options {
	return Options{Steps: 256, H: 0.5, MinSpeed: 1e-9}
}

// Trace advects every seed through the field and returns one line per seed,
// in seed order.
func Trace(f *grid.VectorField, seeds []viz.Vec3, opt Options) []Line {
	if opt.Steps <= 0 {
		opt.Steps = 256
	}
	if opt.H <= 0 {
		opt.H = 0.5
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lines := make([]Line, len(seeds))
	var wg sync.WaitGroup
	idx := make(chan int, len(seeds))
	for i := range seeds {
		idx <- i
	}
	close(idx)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				lines[i] = traceOne(f, seeds[i], opt)
			}
		}()
	}
	wg.Wait()
	return lines
}

// SeedGrid places an nx x ny x nz lattice of seeds across the field domain,
// inset from the boundary.
func SeedGrid(f *grid.VectorField, nx, ny, nz int) []viz.Vec3 {
	var out []viz.Vec3
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				out = append(out, viz.Vec3{
					float32((float64(i) + 0.5) / float64(nx) * float64(f.NX-1)),
					float32((float64(j) + 0.5) / float64(ny) * float64(f.NY-1)),
					float32((float64(k) + 0.5) / float64(nz) * float64(f.NZ-1)),
				})
			}
		}
	}
	return out
}

func traceOne(f *grid.VectorField, seed viz.Vec3, opt Options) Line {
	pts := make([]viz.Vec3, 0, opt.Steps+1)
	x, y, z := float64(seed[0]), float64(seed[1]), float64(seed[2])
	pts = append(pts, seed)
	h := opt.H
	for s := 0; s < opt.Steps; s++ {
		if x < 0 || y < 0 || z < 0 ||
			x > float64(f.NX-1) || y > float64(f.NY-1) || z > float64(f.NZ-1) {
			break
		}
		// RK4.
		k1x, k1y, k1z := f.Sample(x, y, z)
		k2x, k2y, k2z := f.Sample(x+h/2*k1x, y+h/2*k1y, z+h/2*k1z)
		k3x, k3y, k3z := f.Sample(x+h/2*k2x, y+h/2*k2y, z+h/2*k2z)
		k4x, k4y, k4z := f.Sample(x+h*k3x, y+h*k3y, z+h*k3z)
		dx := h / 6 * (k1x + 2*k2x + 2*k3x + k4x)
		dy := h / 6 * (k1y + 2*k2y + 2*k3y + k4y)
		dz := h / 6 * (k1z + 2*k2z + 2*k3z + k4z)
		speed2 := dx*dx + dy*dy + dz*dz
		if speed2 < opt.MinSpeed*opt.MinSpeed {
			break
		}
		x, y, z = x+dx, y+dy, z+dz
		pts = append(pts, viz.Vec3{float32(x), float32(y), float32(z)})
	}
	return Line{Points: pts}
}

// TotalAdvections sums the advection steps actually taken across lines,
// the denominator when calibrating T_advection empirically.
func TotalAdvections(lines []Line) int {
	n := 0
	for _, l := range lines {
		if len(l.Points) > 0 {
			n += len(l.Points) - 1
		}
	}
	return n
}
