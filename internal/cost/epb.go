package cost

import (
	"math"
	"time"

	"ricsa/internal/netsim"
)

// PathEstimate is the result of active bandwidth measurement on one virtual
// link (Section 4.3): the effective path bandwidth (bytes/second), the
// size-independent minimum delay, and the regression fit quality.
type PathEstimate struct {
	EPB      float64       // effective path bandwidth, bytes/s
	MinDelay time.Duration // intercept d0: propagation + equipment delay
	R2       float64       // coefficient of determination of the fit
	// Confidence in [0, 1] weights how much a consumer should trust this
	// estimate: the fit quality, zeroed when the regression degenerates
	// (non-positive slope, too few samples). The central manager scales its
	// EWMA step by it so a probe perturbed by a cross-traffic burst nudges
	// the edge estimate less than a clean one.
	Confidence float64
	// TimedOut marks a bounded probe whose transfer never completed (a dark
	// or collapsed link). EPB then holds the upper bound the timeout
	// implies — probe bytes over the budget — and MinDelay the budget
	// itself; consumers should adopt these raw rather than EWMA-smooth
	// them, since a dead link must be noticed on its first re-probe.
	TimedOut bool
	// Loss is the packet loss fraction observed while probing and LossConf
	// the confidence of that observation in [0, 1] (it grows with the
	// number of packets the estimate is based on). The regression itself
	// does not measure loss; the connection manager fills these from its
	// per-edge accounting and they feed FEC redundancy provisioning.
	Loss     float64
	LossConf float64
}

// DefaultProbeSizes is the test-message size sweep used by active
// measurement: spanning two orders of magnitude so the regression separates
// the bandwidth-constrained term from the fixed delay.
func DefaultProbeSizes() []int {
	return []int{
		64 << 10, 128 << 10, 256 << 10, 512 << 10,
		1 << 20, 2 << 20, 4 << 20,
	}
}

// MeasureEPBBounded sends test messages of the given sizes over the
// channel, measures their end-to-end delays on the virtual clock, and fits
// the linear model d(P, r) = r/EPB + d0 by least squares. The caller must
// own the event loop (no other traffic on the channel during measurement).
// Each size is probed repeats times and delays averaged, smoothing
// cross-traffic noise.
//
// budget is a per-transfer virtual-time limit (<= 0 means unbounded). The
// first transfer that fails to complete within it aborts the sweep and
// returns a TimedOut estimate: a dark link would otherwise stall the prober
// forever. Completed sweeps produce event sequences identical to the
// unbounded path.
func MeasureEPBBounded(ch *netsim.Channel, sizes []int, repeats int, budget time.Duration) PathEstimate {
	if len(sizes) == 0 {
		sizes = DefaultProbeSizes()
	}
	if repeats < 1 {
		repeats = 1
	}
	xs := make([]float64, 0, len(sizes))
	ys := make([]float64, 0, len(sizes))
	for _, r := range sizes {
		var total time.Duration
		for k := 0; k < repeats; k++ {
			el, ok := netsim.MeasureBulkWithin(ch, r, budget)
			if !ok {
				return PathEstimate{
					EPB:      float64(r) / budget.Seconds(),
					MinDelay: budget,
					TimedOut: true,
				}
			}
			total += el
		}
		xs = append(xs, float64(r))
		ys = append(ys, (total / time.Duration(repeats)).Seconds())
	}
	slope, intercept, r2 := linearFit(xs, ys)
	est := PathEstimate{R2: r2}
	if slope > 0 {
		est.EPB = 1 / slope
		est.Confidence = math.Max(0, math.Min(1, r2))
	}
	if len(xs) < 3 {
		// Two points always fit a line exactly; don't let a degenerate sweep
		// report certainty.
		est.Confidence /= 2
	}
	if intercept > 0 {
		est.MinDelay = time.Duration(intercept * float64(time.Second))
	}
	return est
}

// linearFit returns the least-squares slope, intercept, and R^2 of y on x.
func linearFit(xs, ys []float64) (slope, intercept, r2 float64) {
	n := float64(len(xs))
	if n < 2 {
		return 0, 0, 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, my, 0
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1
	}
	// R^2 = explained variance fraction.
	var ssRes float64
	for i := range xs {
		e := ys[i] - (slope*xs[i] + intercept)
		ssRes += e * e
	}
	r2 = 1 - ssRes/syy
	return slope, intercept, r2
}
