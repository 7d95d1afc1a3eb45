package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"ricsa/internal/netsim"
	"ricsa/internal/scenario"
)

// This file reproduces the runtime-reconfiguration behaviour of Section
// 5.3.2 on the live session loop: the scenario engine's
// link-degrade-and-adapt run collapses the GaTech–UT hop of session s1's
// installed loop to 2% capacity mid-run, the Prober's EWMA walks the
// estimate down until the graph is re-stamped, and the session's Adapter
// forces a re-optimization off the degraded path.

// AdaptationResult summarizes one adaptive-reconfiguration run. Every delay
// is a sample row's True: Eq. 2 priced for the installed placement on the
// emulated network's ground-truth channels at the sample instant, not a
// realized bulk transfer.
type AdaptationResult struct {
	// HealthyMean is the mean delay (seconds) before the link collapse;
	// DegradedPeak the largest delay from the collapse until the loop
	// changes path; RecoveredMean the mean over the samples after the last
	// path change, Recovered of them.
	HealthyMean   float64
	DegradedPeak  float64
	RecoveredMean float64
	Recovered     int
	// Reconfigs is the session's Adapter-forced re-optimization count,
	// Adaptations the manager-level Adapter-trigger counter, Restamps the
	// number of re-stamped graph snapshots the CM published.
	Reconfigs   int
	Adaptations uint64
	Restamps    uint64
	PathBefore  []string
	PathAfter   []string
	// Log is the run's deterministic event/metrics log.
	Log []byte
}

// RunAdaptation runs the link-degrade-and-adapt scenario (its own seed and
// script), judges it with the scenario's Verify, and reduces session s1's
// sample rows to the Section 5.3.2 phases.
func RunAdaptation() (*AdaptationResult, error) {
	sc := scenario.LinkDegradeAndAdapt()
	res, err := scenario.Run(sc)
	if err == nil {
		err = sc.Verify(res)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", sc.Name, err)
	}
	degradeAt := time.Duration(-1)
	for _, ev := range sc.Events {
		if strings.HasPrefix(ev.Name, "scale-link ") {
			degradeAt = ev.At
		}
	}
	if degradeAt < 0 {
		return nil, fmt.Errorf("experiments: %s has no scale-link event", sc.Name)
	}

	// Rows before the first consultation carry no placement to price;
	// Verify's final-estimate check guarantees at least one priced row.
	var rows []scenario.SampleRow
	for _, r := range res.Samples {
		if r.Alias == "s1" && r.True >= 0 {
			rows = append(rows, r)
		}
	}
	out := &AdaptationResult{
		Reconfigs:   res.Adapts["s1"],
		Adaptations: res.Adaptations,
		Restamps:    res.Restamps,
		// A row's path prints as "[A B C]".
		PathBefore: strings.Fields(strings.Trim(rows[0].Path, "[]")),
		PathAfter:  strings.Fields(strings.Trim(rows[len(rows)-1].Path, "[]")),
		Log:        res.Log,
	}
	// The degraded phase ends at the first path change; the recovered
	// phase starts at the last one.
	firstChange, lastChange := len(rows), len(rows)
	for i := 1; i < len(rows); i++ {
		if rows[i].Path != rows[i-1].Path {
			firstChange = min(firstChange, i)
			lastChange = i
		}
	}
	healthy := 0
	for i, r := range rows {
		switch {
		case r.At < degradeAt:
			out.HealthyMean += r.True
			healthy++
		case i < firstChange:
			out.DegradedPeak = math.Max(out.DegradedPeak, r.True)
		}
		if i >= lastChange {
			out.RecoveredMean += r.True
			out.Recovered++
		}
	}
	if healthy > 0 {
		out.HealthyMean /= float64(healthy)
	}
	if out.Recovered > 0 {
		out.RecoveredMean /= float64(out.Recovered)
	}
	return out, nil
}

// Check holds the run to Section 5.3.2's shape: the collapse degrades the
// delay, the reconfigured loop recovers below the degraded peak on a path
// that avoids the collapsed GaTech–UT hop, and the recovery came from the
// Adapter acting on a re-stamped graph.
func (r *AdaptationResult) Check() error {
	switch {
	case r.DegradedPeak <= r.HealthyMean:
		return fmt.Errorf("collapse did not degrade delay: healthy %.3fs, degraded %.3fs", r.HealthyMean, r.DegradedPeak)
	case r.Recovered == 0 || r.RecoveredMean >= r.DegradedPeak:
		return fmt.Errorf("no recovery: degraded %.3fs, recovered %.3fs over %d samples", r.DegradedPeak, r.RecoveredMean, r.Recovered)
	case strings.Join(r.PathAfter, " ") == strings.Join(r.PathBefore, " "):
		return fmt.Errorf("loop never left %v", r.PathBefore)
	case usesHop(r.PathAfter, netsim.GaTech, netsim.UT):
		return fmt.Errorf("recovered loop %v still crosses %s-%s", r.PathAfter, netsim.GaTech, netsim.UT)
	case r.Adaptations < 1 || r.Reconfigs < 1:
		return fmt.Errorf("adapter never fired: manager %d, session %d", r.Adaptations, r.Reconfigs)
	case r.Restamps < 1:
		return fmt.Errorf("collapse never re-stamped the graph")
	}
	return nil
}

// usesHop reports whether path crosses the link a–b in either direction.
func usesHop(path []string, a, b string) bool {
	for i := 0; i+1 < len(path); i++ {
		if (path[i] == a && path[i+1] == b) || (path[i] == b && path[i+1] == a) {
			return true
		}
	}
	return false
}
