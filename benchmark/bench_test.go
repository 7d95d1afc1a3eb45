package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"ricsa/internal/fcp"
)

// TestManifest holds BENCHMARK.json and the metric tables together: the
// file declares exactly the workloads and metrics the command emits.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []entry                      `json:"end_to_end"`
		PerLayer  []entry                      `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the command", i, doc.Workloads[i].Name, w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	same := func(kind string, got []entry, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i, s := range want {
			if got[i] != (entry{s.name, s.unit, s.better, s.bound}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the command %+v", kind, i, got[i], s)
			}
			if !name.MatchString(s.name) || !unit.MatchString(s.unit) || seen[s.name] {
				t.Errorf("%s: bad or repeated name or unit: %+v", kind, s)
			}
			seen[s.name] = true
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestWorkloads runs every workload for about a second, untraced and
// traced, and checks that each emits every declared metric once, finite
// and with its unit, that nothing failed, and that tearing the stack down
// leaves no goroutine behind.
func TestWorkloads(t *testing.T) {
	traceDir = t.TempDir()
	before := runtime.NumGoroutine()
	for _, w := range workloads {
		if testing.Short() && w.name == "session-saturate" {
			continue
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, window: 1200 * time.Millisecond, traced: traced, setups: 1}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", w.name, traced, s.name, m, ok, s.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g, must be positive", w.name, s.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(traceDir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
	// The raycaster runs on the process-wide default pool, which lives until
	// it is resized; idle HTTP connections wind down asynchronously.
	fcp.SetDefaultWorkers(0)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, spread := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 || spread != 1 {
		t.Errorf("quartiles %g %g %g spread %g", q1, q2, q3, spread)
	}
}
