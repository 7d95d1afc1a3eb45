package cost

import (
	"time"

	"ricsa/internal/grid"
	"ricsa/internal/viz"
	"ricsa/internal/viz/streamline"
)

// StreamlineModel is the streamline performance model of Eq. 8:
//
//	t_streamline = n_seeds x n_steps x T_advection
//
// with T_advection the calibrated time of one RK4 advection step.
type StreamlineModel struct {
	// TAdvection is seconds per advection step on a power-1 node.
	TAdvection float64
}

// MeasureStreamlineTiming calibrates T_advection by tracing seeds through a
// test field and dividing wall time by the advection steps actually taken
// ("running the streamline algorithm on a test data set and recording the
// time spent for each advection").
func MeasureStreamlineTiming(f *grid.VectorField, seeds []viz.Vec3, steps int) StreamlineModel {
	opt := streamline.DefaultOptions()
	opt.Steps = steps
	opt.Workers = 1
	start := time.Now()
	lines := streamline.Trace(f, seeds, opt)
	elapsed := time.Since(start).Seconds()
	n := streamline.TotalAdvections(lines)
	if n == 0 {
		return StreamlineModel{}
	}
	return StreamlineModel{TAdvection: elapsed / float64(n)}
}
