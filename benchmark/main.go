// Command benchmark is the RICSA benchmark: one process that runs a named
// workload against the real stack in-process — a steering.SessionManager
// served by a webui.Hub on a loopback socket, or a cm.Manager over a
// generated netsim.Network — checks that the outputs are correct, and
// prints every metric by name with its unit. The last line of standard
// output is the result object BENCHMARK.json's contract describes.
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"ricsa/internal/fcp"
)

// runConfig is what one workload run is given. Everything the program
// under test sees is generated from seed.
type runConfig struct {
	seed   int64
	window time.Duration
	traced bool
	// setups is how many times the workload is set up before it is
	// measured; setup_s is the median, so one slow start does not decide it.
	setups int
}

// warmup is how long a live workload runs before its window opens, so the
// ROI block cache, the cost model and the optimizer cache are filled.
func (c runConfig) warmup() time.Duration {
	if w := c.window / 5; w < time.Second {
		return w
	}
	return time.Second
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	// violations are correctness failures; any of them makes the run
	// incorrect and the command exit non-zero.
	violations []string
	setupS     []float64
	// latencyMS holds one sample per completed headline operation.
	latencyMS  []float64
	throughput float64
	// layer holds the per-layer values this workload measured on a traced
	// run; layers it bypasses stay at 0.
	layer map[string]float64
}

func (o *outcome) violate(format string, args ...any) {
	o.failed++
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(cfg runConfig, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"steer-loop", runSteerLoop},
	{"session-saturate", runSaturate},
	{"viewer-mix", runViewerMix},
	{"cm-churn", runChurn},
}

// metric is one reported value; the JSON shape is the contract's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run: steer-loop, session-saturate, viewer-mix, cm-churn, or all")
		seed      = flag.Int64("seed", 20080414, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 20, "length of the measurement window")
		trace     = flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics and benchmark/out/trace-<workload>.json")
		selfcheck = flag.Int("selfcheck", 0, "run every workload this many times on fresh seeds, in child processes, and check each end-to-end spread against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	if *selfcheck > 0 {
		os.Exit(runSelfcheck(*selfcheck, *seed, *seconds))
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// The default pool is sized by the machine, as ricsa-server leaves it;
	// GOMAXPROCS is not overridden.
	fcp.SetDefaultWorkers(0)
	printHeader(*seed, *seconds, *trace == 1)
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, setups: 3}
	code := 0
	for _, w := range selected {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if !res.Correct {
			code = 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
	os.Exit(code)
}

func printHeader(seed int64, seconds float64, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# ricsa benchmark: loopback, in-process server; nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g traced=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed, seconds, traced)
}

// runWorkload runs one workload, prints its metrics by name and returns
// the result object: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func runWorkload(w workload, cfg runConfig) (result, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	out, err := w.run(cfg, tr)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metric)}
	lat := sortedCopy(out.latencyMS)
	e2e := map[string]float64{
		"latency_p50_ms":   quantile(lat, 0.5),
		"latency_p90_ms":   quantile(lat, 0.9),
		"throughput_per_s": out.throughput,
		"setup_s":          median(out.setupS),
	}
	if cfg.traced {
		if err := microPass(out.layer); err != nil {
			out.violate("micro pass: %v", err)
		}
		out.layer["trace.latency_p50_ms"] = e2e["latency_p50_ms"]
		out.layer["trace.throughput_per_s"] = e2e["throughput_per_s"]
		for _, s := range perLayer {
			res.Metrics[s.name] = metric{out.layer[s.name], s.unit}
		}
		for name := range out.layer {
			if _, declared := res.Metrics[name]; !declared {
				out.violate("per-layer metric %q is not declared", name)
			}
		}
		if err := tr.write(w.name); err != nil {
			return result{}, err
		}
	} else {
		for _, s := range endToEnd {
			res.Metrics[s.name] = metric{e2e[s.name], s.unit}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.violate("metric %s is not finite", name)
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		out.violate("no operation was attempted")
	}
	res.Failed = out.failed
	res.Correct = len(out.violations) == 0

	fmt.Printf("## %s: %d operations attempted, %d failed, %d latency samples\n",
		w.name, res.Attempted, res.Failed, len(lat))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-40s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, v := range out.violations {
		fmt.Printf("VIOLATION %s: %s\n", w.name, v)
	}
	return res, nil
}
