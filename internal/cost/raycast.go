package cost

import (
	"time"

	"ricsa/internal/grid"
	"ricsa/internal/viz/raycast"
)

// RaycastModel is the ray casting performance model of Eq. 7:
//
//	t_raycasting = n_blocks x n_rays x n_samples x t_sample
//
// where n_blocks counts nonempty blocks, n_rays and n_samples depend only
// on the viewport and step under orthographic projection, and t_sample is
// the per-sample compute time calibrated per machine.
type RaycastModel struct {
	// TSample is the seconds per volume sample on a power-1 node.
	TSample float64
}

// Time evaluates Eq. 7. blockFraction is the fraction of blocks that are
// nonempty (rays are charged only for them); pass 1 for a dense volume.
func (m *RaycastModel) Time(nRays, nSamples int, blockFraction float64) float64 {
	if blockFraction < 0 {
		blockFraction = 0
	}
	if blockFraction > 1 {
		blockFraction = 1
	}
	return float64(nRays) * float64(nSamples) * blockFraction * m.TSample
}

// MeasureRaycastTiming calibrates TSample by rendering a small test volume
// and dividing wall time by the total sample count, mirroring the paper's
// "easily computed by running ray casting algorithm on a test dataset for
// each machine".
func MeasureRaycastTiming(f *grid.ScalarField, width, height int) RaycastModel {
	opt := raycast.DefaultOptions()
	opt.Width, opt.Height = width, height
	opt.Workers = 1 // calibrate single-core reference time
	nSamples := raycast.SamplesPerRay(f, opt.Step)
	start := time.Now()
	raycast.Render(f, opt)
	elapsed := time.Since(start).Seconds()
	total := float64(width*height) * float64(nSamples)
	return RaycastModel{TSample: elapsed / total}
}
