package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSelfcheck is the driver's acceptance test, reproducible by hand: for
// every workload it runs two sets of n fresh processes, each on another
// seed, and prints per end-to-end metric each set's median and the spread
// between its quartiles as a share of the median. A spread (setup_s
// excepted) above the metric's bound, or a second median worse than the
// first by more than the bound, fails. It then runs the traced pass once
// per workload and prints what tracing cost the headline metrics.
func runSelfcheck(n int, seed int64, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		return 1
	}
	child := func(workload string, seed int64, trace int) (result, error) {
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res result
		if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
			return res, fmt.Errorf("%s seed %d: no result line (%v, exit: %v)", workload, seed, jerr, err)
		}
		if err != nil || !res.Correct || res.Failed != 0 {
			return res, fmt.Errorf("%s seed %d: correct=%v failed=%d exit: %v", workload, seed, res.Correct, res.Failed, err)
		}
		return res, nil
	}
	code := 0
	fmt.Printf("%-17s %-17s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "median-1", "spread-1", "median-2", "spread-2", "drift", "bound", "verdict")
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				res, err := child(w.name, seed+int64(set*n+i+1), 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "selfcheck:", err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		medians := make(map[string]float64)
		for _, s := range endToEnd {
			_, med1, _, spread1 := quartileSpread(sets[0][s.name])
			_, med2, _, spread2 := quartileSpread(sets[1][s.name])
			medians[s.name] = med1
			// drift is how much worse the second set's median is.
			drift := (med2 - med1) / med1
			if s.better == "higher" {
				drift = -drift
			}
			verdict := "steady"
			switch worst := max(spread1, spread2); {
			case drift > s.bound, s.name != "setup_s" && worst > s.bound:
				verdict = "FAIL"
				code = 1
			case s.name != "setup_s" && worst > s.bound/3:
				verdict = "within bound, above a third of it"
			}
			fmt.Printf("%-17s %-17s %12.6g %7.2f%% %12.6g %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				w.name, s.name, med1, 100*spread1, med2, 100*spread2, 100*drift, 100*s.bound, verdict)
		}
		traced, err := child(w.name, seed, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck:", err)
			return 1
		}
		for _, pair := range [][2]string{{"trace.latency_p50_ms", "latency_p50_ms"}, {"trace.throughput_per_s", "throughput_per_s"}} {
			base := medians[pair[1]]
			fmt.Printf("%-17s trace.overhead_share on %-17s %+7.2f%% (traced %.6g, untraced median %.6g)\n",
				w.name, pair[1], 100*(traced.Metrics[pair[0]].Value-base)/base, traced.Metrics[pair[0]].Value, base)
		}
	}
	return code
}

// quartileSpread returns the quartiles of values as Python's
// statistics.quantiles(values, n=4) gives them, and the distance between
// the first and third as a share of the median.
func quartileSpread(values []float64) (q1, q2, q3, spread float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n < 2 {
		return 0, 0, 0, 0
	}
	cut := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		j = min(max(j, 1), n-1)
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	q1, q2, q3 = cut(1), cut(2), cut(3)
	return q1, q2, q3, (q3 - q1) / q2
}
