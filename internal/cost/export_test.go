package cost

import (
	"math"
	"time"

	"ricsa/internal/grid"
)

// TransferTime predicts the delay of moving size bytes over the path using
// the linear model d(P, r) = r/EPB + d0.
func (p PathEstimate) TransferTime(size int) time.Duration {
	if p.EPB <= 0 {
		return time.Duration(math.MaxInt64 / 2)
	}
	return time.Duration(float64(size)/p.EPB*float64(time.Second)) + p.MinDelay
}

// Time evaluates Eq. 8.
func (m *StreamlineModel) Time(nSeeds, nSteps int) float64 {
	return float64(nSeeds) * float64(nSteps) * m.TAdvection
}

// NonemptyFraction computes the fraction of blocks whose value range is not
// entirely transparent under a threshold (samples below it map to zero
// opacity), the n_blocks/total ratio of Eq. 7.
func NonemptyFraction(blocks []grid.Block, transparentBelow float32) float64 {
	if len(blocks) == 0 {
		return 0
	}
	n := 0
	for _, b := range blocks {
		if b.Max > transparentBelow {
			n++
		}
	}
	return float64(n) / float64(len(blocks))
}

// IsovalueSweep returns n isovalues evenly spanning the field's value range
// interior (excluding the exact min/max, which yield empty surfaces).
func IsovalueSweep(f *grid.ScalarField, n int) []float32 {
	mn, mx := f.MinMax()
	if n < 1 {
		n = 1
	}
	out := make([]float32, n)
	for i := range out {
		t := (float64(i) + 1) / (float64(n) + 1)
		out[i] = mn + float32(t)*(mx-mn)
	}
	return out
}
