package experiments

import (
	"fmt"

	"ricsa/internal/cost"
	"ricsa/internal/dataset"
	"ricsa/internal/netsim"
	"ricsa/internal/steering"
)

// This file evaluates the overlay-multicast shape the routing tree enables:
// one data source fanning its visualization out to K viewer hosts. The
// comparison is K independently optimized source->viewer paths (each paying
// the full filter/extract/render prefix) against one shared visualization
// routing tree (the prefix mapped once, K delivery branches). It also
// exercises the service-level promise that a fan-out session is one cache
// instance: after the first viewer's consultation misses, every further
// viewer of the same set is answered from the shared optimizer cache.

// FanoutRow is one K of the fan-out sweep.
type FanoutRow struct {
	K       int
	Viewers []string
	// IndependentMax is the slowest of the K independently optimized
	// paths, and IndependentSum their total — the aggregate pipeline work
	// K separate sessions would schedule, prefix re-paid per viewer.
	IndependentMax float64
	IndependentSum float64
	// TreeDelay is the shared tree's slowest branch (what a multi-viewer
	// session charges per frame), TreeSharedDelay the once-paid prefix,
	// TreeSum the sum of branch end-to-end delays (each includes the
	// prefix), and TreeWork the aggregate work the tree actually schedules:
	// the prefix once plus every branch's tail — the column to hold against
	// IndependentSum, where the prefix is re-paid per viewer.
	TreeDelay       float64
	TreeSharedDelay float64
	TreeSum         float64
	TreeWork        float64
	SharedPath      []string
	BranchSummary   []string
	// CacheMisses/CacheHits are the shared-cache counter deltas across the
	// K viewer consultations of the tree: 1 miss and K-1 hits when the
	// destination-set key works.
	CacheMisses uint64
	CacheHits   uint64
}

// FanoutViewerPool is the default viewer-host order the sweep fans out to.
func FanoutViewerPool() []string {
	return []string{netsim.ORNL, netsim.UT, netsim.NCState, netsim.LSU}
}

// RunFanout sweeps K = 1..maxK viewers of one GaTech data source over the
// noiseless testbed, comparing K independent optimized paths against one
// shared routing tree, with each of the K viewers consulting the optimizer
// (the first misses, the rest hit the destination-set cache key).
func RunFanout(o Options, maxK int) ([]FanoutRow, error) {
	o.fill()
	pool := FanoutViewerPool()
	if maxK < 1 {
		maxK = 1
	}
	if maxK > len(pool) {
		maxK = len(pool)
	}

	// Noiseless testbed: the comparison is about tree structure, not
	// cross-traffic variance.
	cfg := netsim.DefaultTestbed()
	cfg.Loss = 0
	cfg.CrossMean = 0
	d := steering.NewDeployment(netsim.Testbed(o.Seed, cfg))
	d.Measure([]int{256 << 10, 1 << 20}, 1)

	// The heavy archival pipeline, so prefix placement genuinely matters.
	scale := o.AnalysisScale * 8
	st := steering.AnalyzeSpec(dataset.RageSpec.Scaled(scale), o.BlockEdge)
	st.RawBytes = dataset.RageSpec.SizeBytes()
	pipe := steering.BuildIsoPipeline(st)

	src := netsim.GaTech
	var out []FanoutRow
	for k := 1; k <= maxK; k++ {
		row := FanoutRow{K: k, Viewers: append([]string(nil), pool[:k]...)}

		for _, dst := range row.Viewers {
			vrt, err := d.CM.Optimize(pipe, src, dst)
			if err != nil {
				return nil, fmt.Errorf("fanout %s->%s: %w", src, dst, err)
			}
			row.IndependentSum += vrt.Delay
			if vrt.Delay > row.IndependentMax {
				row.IndependentMax = vrt.Delay
			}
		}

		before := d.CM.CacheStats()
		for viewer := 0; viewer < k; viewer++ {
			// Every viewer of the session consults the CM on join; the
			// destination set is the cache key, so only the first runs the
			// tree DP.
			tree, err := d.CM.OptimizeMultiTiered(pipe, src, row.Viewers, cost.TierFull)
			if err != nil {
				return nil, fmt.Errorf("fanout tree K=%d: %w", k, err)
			}
			if viewer == 0 {
				row.TreeDelay = tree.Delay
				row.TreeSharedDelay = tree.SharedDelay
				row.SharedPath = tree.SharedPath()
				row.TreeWork = tree.SharedDelay
				for _, b := range tree.Branches {
					row.TreeSum += b.Delay
					row.TreeWork += b.Delay - tree.SharedDelay // tail only
					row.BranchSummary = append(row.BranchSummary,
						fmt.Sprintf("%s %.2fs", b.Dst, b.Delay))
				}
			}
		}
		after := d.CM.CacheStats()
		row.CacheMisses = after.Misses - before.Misses
		row.CacheHits = after.Hits - before.Hits
		out = append(out, row)
	}
	return out, nil
}
