// Command ricsa-bench regenerates the paper's evaluation artifacts as text
// tables: Fig. 9 (end-to-end delay of six visualization loops over three
// datasets), Fig. 10 (RICSA vs the ParaView-style comparator), the Section 3
// transport stabilization behaviour, the Section 4.5 DP optimality and
// scaling validation, and the Section 4.4 cost-model accuracy check.
//
// Usage:
//
//	ricsa-bench -exp all            # every experiment at full scale
//	ricsa-bench -exp fig9           # one experiment
//	ricsa-bench -exp fanout         # K viewers: independent paths vs tree
//	ricsa-bench -exp fig9 -scale 4  # reduced-scale quick run
//	ricsa-bench -bench-json BENCH_pipeline.json  # machine-readable
//	                                  control+data-plane micro-benchmarks
//	ricsa-bench -bench-diff BENCH_pipeline.new.json  # flag >20% regressions
//	                                  vs the committed baseline, then exit
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/experiments"
	"ricsa/internal/scenario"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment: fig9, fig10, transport, dp, cost, gain, predict, adapt, fanout, scenario, fecduel, all")
	soak := flag.Int("soak", 4,
		"virtual-duration multiplier for -exp scenario (1 = the go test scale)")
	scale := flag.Int("scale", 1, "dataset analysis scale divisor (1 = full size)")
	trials := flag.Int("trials", 3, "trials per measurement")
	seed := flag.Int64("seed", 1, "random seed (adapt, scenario, fecduel and tierduel fix their own)")
	benchJSON := flag.String("bench-json", "",
		"write control- and data-plane micro-benchmarks (op, ns/op, allocs) as JSON to this path and exit")
	benchDiff := flag.String("bench-diff", "",
		"compare this freshly generated bench JSON against -bench-baseline, print a markdown summary flagging >20% regressions, and exit (always zero for regressions)")
	benchBaseline := flag.String("bench-baseline", "BENCH_pipeline.json",
		"committed baseline artifact -bench-diff compares against")
	benchBudgets := flag.String("bench-budgets", "BENCH_budgets.json",
		"per-stage ns/op and allocs/op ceilings checked by -bench-diff; a violation exits non-zero (empty disables)")
	flag.Parse()

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "ricsa-bench bench-json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *benchDiff != "" {
		if _, err := diffBenchJSON(*benchBaseline, *benchDiff); err != nil {
			fmt.Fprintf(os.Stderr, "ricsa-bench bench-diff: %v\n", err)
			os.Exit(1)
		}
		if *benchBudgets != "" {
			violations, err := checkBenchBudgets(*benchBudgets, *benchDiff)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ricsa-bench bench-budgets: %v\n", err)
				os.Exit(1)
			}
			if violations > 0 {
				os.Exit(1)
			}
		}
		return
	}

	opt := experiments.DefaultOptions()
	opt.Seed = *seed
	opt.AnalysisScale = *scale
	opt.Trials = *trials

	run := func(name string, fn func() error) {
		switch *exp {
		case name, "all":
			if err := fn(); err != nil {
				fmt.Fprintf(os.Stderr, "ricsa-bench %s: %v\n", name, err)
				os.Exit(1)
			}
		}
	}

	run("fig9", func() error { return runFig9(opt) })
	run("fig10", func() error { return runFig10(opt) })
	run("transport", func() error { return runTransport(opt) })
	run("dp", func() error { return runDP(opt) })
	run("cost", func() error { return runCost(opt) })
	run("gain", func() error { return runGain(opt) })
	run("predict", func() error { return runPredict(opt) })
	run("adapt", runAdapt)
	run("fanout", func() error { return runFanout(opt) })
	run("scenario", func() error { return runScenario(*soak) })
	run("fecduel", runFECDuel)
	run("tierduel", runTierDuel)
}

// runTierDuel prints the uniform-vs-mixed quality-ladder head-to-head:
// the same flash-crowd script and seed run under two MaxTier budgets.
// The uniform side (budget full) clamps every hint to the full-resolution
// PNG; the mixed side lets viewers negotiate down the ladder, so its
// congested-link train ships quarter-tier frames. The mixed side's Verify
// re-runs the uniform sibling and asserts the constrained train's tail is
// strictly better — the byte saving the optimizer prices.
func runTierDuel() error {
	return runDuel("== Tier duel: uniform full-resolution vs negotiated quality ladder ==",
		fmt.Sprintf("%-26s %-14s %-8s %8s %8s  %-28s %s",
			"scenario", "train", "tier", "p50", "p99", "delivered(per tier)", "verdict"),
		[]scenario.Scenario{scenario.TierFlashCrowdUniform(), scenario.TierFlashCrowdMixed()},
		func(name string, res *scenario.Result, lbl string, last bool) string {
			var delivered []string
			for t, n := range res.TierDelivered {
				if last && n > 0 {
					delivered = append(delivered, fmt.Sprintf("%s=%d", cost.Tier(t), n))
				}
			}
			ts := res.FrameTrains[lbl]
			return fmt.Sprintf("%-26s %-14s %-8s %7.4fs %7.4fs  %-28s ",
				name, lbl, ts.Tier, ts.P50, ts.P99, strings.Join(delivered, " "))
		})
}

// runFECDuel prints the NACK-vs-FEC head-to-head: each transport duel
// scenario pair runs both sides (identical seed and script, only the
// delivery model differs) and the table reports every frame train's
// delivery percentiles, decode/fallback accounting, and the provisioned
// redundancy. The FEC sides' Verify carries the tail-delay and
// counted-fallback assertions, so a FAIL verdict here is the same
// regression the go-test suite would catch.
func runFECDuel() error {
	return runDuel("== Transport duel: NACK retransmission vs loss-adaptive fountain-FEC ==",
		fmt.Sprintf("%-28s %-12s %-5s %6s %8s %9s %9s %9s  %s",
			"scenario", "train", "mode", "r", "decoded", "fallback", "p50", "p99", "verdict"),
		[]scenario.Scenario{
			scenario.FECDuelFlapStormNACK(), scenario.FECDuelFlapStormFEC(),
			scenario.FECDuelProbeStarvedNACK(), scenario.FECDuelProbeStarvedFEC(),
		},
		func(name string, res *scenario.Result, lbl string, _ bool) string {
			ts := res.FrameTrains[lbl]
			return fmt.Sprintf("%-28s %-12s %-5s %6.3f %5d/%-2d %8d %8.4fs %8.4fs  ",
				name, lbl, ts.Mode, ts.Redundancy, ts.Decoded, ts.Frames,
				ts.Fallbacks, ts.P50, ts.P99)
		})
}

// runDuel runs each duel side, judges it with its Verify, and prints one
// table row per frame train in label order; row formats every column but
// the verdict, which the side's last row carries.
func runDuel(title, header string, sides []scenario.Scenario,
	row func(name string, res *scenario.Result, lbl string, last bool) string) error {
	fmt.Println(title)
	fmt.Println(header)
	var failed []string
	for _, sc := range sides {
		res, err := scenario.Run(sc)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		verdict := "ok"
		if err := sc.Verify(res); err != nil {
			verdict = "FAIL: " + err.Error()
			failed = append(failed, sc.Name)
		}
		labels := make([]string, 0, len(res.FrameTrains))
		for lbl := range res.FrameTrains {
			labels = append(labels, lbl)
		}
		sort.Strings(labels)
		for i, lbl := range labels {
			last := i == len(labels)-1
			v := ""
			if last {
				v = verdict
			}
			fmt.Println(row(sc.Name, res, lbl, last) + v)
		}
	}
	fmt.Println()
	if len(failed) > 0 {
		return fmt.Errorf("%d duel side(s) failed verification: %s",
			len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// runScenario soaks the deterministic WAN scenario suite: every canned
// scenario at a multiple of its go-test virtual duration (count-exact
// scripts excepted — their expectations hold only at the scripted length),
// with its Verify judgement and the log checksum that makes a run
// comparable across machines (same seed => same checksum, by the engine's
// determinism contract — at soak x1; longer soaks extend the sampled tail).
func runScenario(soak int) error {
	if soak < 1 {
		soak = 1
	}
	fmt.Printf("== Deterministic WAN scenario suite (soak x%d) ==\n", soak)
	fmt.Printf("%-24s %8s %9s %8s %7s %7s %9s %7s %10s  %s\n",
		"scenario", "virtual", "wall", "frames", "reopts", "adapts", "restamps", "cache", "log", "verdict")
	var failed []string
	for _, sc := range scenario.All() {
		if !sc.CountExact {
			sc.Duration *= time.Duration(soak)
		}
		start := time.Now()
		res, err := scenario.Run(sc)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		wall := time.Since(start).Round(time.Millisecond)
		var frames uint64
		var reopts, adapts int
		for _, v := range res.Frames {
			frames += v
		}
		for _, v := range res.Reopts {
			reopts += v
		}
		for _, v := range res.Adapts {
			adapts += v
		}
		verdict := "ok"
		if len(res.Violations) > 0 {
			verdict = fmt.Sprintf("VIOLATIONS=%d", len(res.Violations))
			failed = append(failed, sc.Name)
		}
		if sc.Verify != nil {
			if err := sc.Verify(res); err != nil {
				verdict = "FAIL: " + err.Error()
				failed = append(failed, sc.Name)
			}
		}
		sum := sha256.Sum256(res.Log)
		fmt.Printf("%-24s %8s %9s %8d %7d %7d %9d %4d/%-3d %10x  %s\n",
			sc.Name, sc.Duration, wall, frames, reopts, adapts,
			res.Restamps, res.CacheStats.Hits, res.CacheStats.Misses, sum[:4], verdict)
	}
	fmt.Println()
	if len(failed) > 0 {
		return fmt.Errorf("%d scenario(s) failed verification: %s",
			len(failed), strings.Join(failed, ", "))
	}
	return nil
}

func runFanout(opt experiments.Options) error {
	fmt.Println("== Fan-out: K independent paths vs one shared routing tree ==")
	rows, err := experiments.RunFanout(opt, 4)
	if err != nil {
		return err
	}
	fmt.Printf("%-3s %-28s %10s %10s %10s %10s %12s\n",
		"K", "viewers", "indep max", "indep sum", "tree max", "tree work", "cache h/m")
	for _, r := range rows {
		fmt.Printf("%-3d %-28s %9.2fs %9.2fs %9.2fs %9.2fs %9d/%d\n",
			r.K, strings.Join(r.Viewers, ","), r.IndependentMax, r.IndependentSum,
			r.TreeDelay, r.TreeWork, r.CacheHits, r.CacheMisses)
	}
	last := rows[len(rows)-1]
	fmt.Printf("-- shared prefix (paid once, %.2fs): %v\n", last.TreeSharedDelay, last.SharedPath)
	fmt.Printf("-- branches: %v\n", last.BranchSummary)
	fmt.Println()
	return nil
}

// runAdapt reports Section 5.3.2 from the live loop's
// link-degrade-and-adapt scenario (which fixes its own seed) and fails when
// the run breaks the scenario's Verify or the adaptation's shape.
func runAdapt() error {
	fmt.Println("== Sec. 5.3.2: adaptive reconfiguration on link collapse (link-degrade-and-adapt) ==")
	res, err := experiments.RunAdaptation()
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %10s\n", "phase", "delay")
	fmt.Printf("%-24s %9.3fs\n", "healthy (mean)", res.HealthyMean)
	fmt.Printf("%-24s %9.3fs\n", "degraded (peak)", res.DegradedPeak)
	fmt.Printf("%-24s %9.3fs  (%d samples)\n", "recovered (mean)", res.RecoveredMean, res.Recovered)
	fmt.Printf("-- reconfigs %d, adapter triggers %d, graph restamps %d\n",
		res.Reconfigs, res.Adaptations, res.Restamps)
	fmt.Printf("-- loop before: %v\n", res.PathBefore)
	fmt.Printf("-- loop after:  %v\n", res.PathAfter)
	sum := sha256.Sum256(res.Log)
	fmt.Printf("-- log %x\n", sum[:4])
	fmt.Println()
	return res.Check()
}

func runGain(opt experiments.Options) error {
	fmt.Println("== Ablation: Robbins-Monro gain schedule (Eq. 1 coefficients) ==")
	rows := experiments.RunGainAblation(opt.Seed, 600*1024, 40*time.Second)
	fmt.Printf("%-8s %-8s %-10s %-12s %-10s\n", "gain a", "decay", "converged", "conv time", "RMS err")
	for _, r := range rows {
		conv := "-"
		if r.Converged {
			conv = fmt.Sprintf("%.1fs", r.ConvergeSec)
		}
		fmt.Printf("%-8.2f %-8.1f %-10v %-12s %-10.3f\n", r.Gain, r.DecayExp, r.Converged, conv, r.RMS)
	}
	fmt.Println()
	return nil
}

func runPredict(opt experiments.Options) error {
	fmt.Println("== Validation: Eq. 2 prediction vs realized delay per loop ==")
	rows, err := experiments.RunPredictionAccuracy(opt)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-44s %10s %10s %7s\n", "dataset", "loop", "predicted", "realized", "ratio")
	for _, r := range rows {
		fmt.Printf("%-12s %-44s %9.2fs %9.2fs %7.2f\n", r.Dataset, r.Loop, r.Predicted, r.Realized, r.Ratio)
	}
	fmt.Println()
	return nil
}

func runFig9(opt experiments.Options) error {
	fmt.Println("== Fig. 9: end-to-end delay of visualization loops (seconds) ==")
	res, err := experiments.RunFig9(opt)
	if err != nil {
		return err
	}
	fmt.Printf("%-44s", "loop")
	for _, r := range res {
		fmt.Printf("  %10s", fmt.Sprintf("%s(%dMB)", r.Dataset, int(r.SizeMB)))
	}
	fmt.Println()
	for i := range res[0].Loops {
		fmt.Printf("%-44s", res[0].Loops[i].Name)
		for _, r := range res {
			fmt.Printf("  %10.2f", r.Loops[i].Seconds)
		}
		fmt.Println()
	}
	fmt.Printf("%-44s", "RICSA optimal (DP)")
	for _, r := range res {
		fmt.Printf("  %10.2f", r.Optimal)
	}
	fmt.Println()
	for _, r := range res {
		fmt.Printf("-- %s: optimal path %v, speedup vs best PC-PC %.2fx\n",
			r.Dataset, r.OptimalPath, r.SpeedupVsPCPC)
	}
	fmt.Println()
	return nil
}

func runFig10(opt experiments.Options) error {
	fmt.Println("== Fig. 10: RICSA optimal loop vs ParaView -crs (seconds) ==")
	res, err := experiments.RunFig10(opt)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %12s %12s %8s\n", "dataset", "RICSA", "ParaView", "ratio")
	for _, r := range res {
		fmt.Printf("%-22s %12.2f %12.2f %8.2f\n",
			fmt.Sprintf("%s(%dMB)", r.Dataset, int(r.SizeMB)), r.RICSA, r.ParaView, r.ParaView/r.RICSA)
	}
	fmt.Println()
	return nil
}

func runTransport(opt experiments.Options) error {
	fmt.Println("== Sec. 3: control-channel goodput stabilization (g* = 6.4 Mb/s) ==")
	target := 800.0 * 1024 // bytes/s
	res := experiments.RunTransport(opt.Seed, target, []float64{0, 0.01, 0.02, 0.05, 0.10}, 60*time.Second)
	fmt.Printf("%-8s %-10s %-12s %-10s %-10s %-10s\n",
		"loss", "converged", "conv time", "RMS err", "CV stab", "CV AIMD")
	for _, r := range res {
		conv := "-"
		if r.Converged {
			conv = fmt.Sprintf("%.1fs", r.ConvergeSec)
		}
		fmt.Printf("%-8.2f %-10v %-12s %-10.3f %-10.3f %-10.3f\n",
			r.Loss, r.Converged, conv, r.RMS, r.CVStable, r.CVAIMD)
	}
	fmt.Println("\n-- goodput trace at 5% loss (time s, goodput Mb/s):")
	for _, s := range res[3].Trace {
		fmt.Printf("   %6.1f %8.2f\n", s.At.Seconds(), s.Goodput*8/1e6)
	}
	fmt.Println()
	return nil
}

func runDP(opt experiments.Options) error {
	fmt.Println("== Sec. 4.5: DP optimizer scaling O(n x |E|) and optimality ==")
	rows := experiments.RunDPScaling(opt.Seed,
		[]int{2, 4, 8, 16, 32}, []int{6, 12, 25, 50, 100})
	fmt.Printf("%-9s %-7s %-7s %-12s %-10s\n", "modules", "nodes", "|E|", "DP (us)", "optimal?")
	for _, r := range rows {
		check := "-"
		if r.Checked {
			if r.MatchedExhaustive {
				check = "yes"
			} else {
				check = "NO"
			}
		}
		fmt.Printf("%-9d %-7d %-7d %-12.1f %-10s\n", r.Modules, r.Nodes, r.Edges, r.DPMicros, check)
	}
	fmt.Println()
	return nil
}

func runCost(opt experiments.Options) error {
	fmt.Println("== Sec. 4.4: visualization cost model accuracy ==")
	scale := opt.AnalysisScale
	if scale < 4 {
		scale = 4 // full-size wall-clock extraction would run for minutes
	}
	rows := experiments.RunCostAccuracy(scale)
	fmt.Printf("%-14s %-14s %12s %12s %8s\n", "technique", "dataset", "predicted", "measured", "ratio")
	for _, r := range rows {
		fmt.Printf("%-14s %-14s %11.3fs %11.3fs %8.2f\n",
			r.Technique, r.Dataset, r.Predicted, r.Measured, r.Ratio)
	}
	fmt.Println()
	return nil
}
