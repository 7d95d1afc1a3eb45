package scenario

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ricsa/internal/netsim"
	"ricsa/internal/testutil"
)

// update rewrites the golden log checksums instead of comparing against
// them: `go test ./internal/scenario -run TestScenarioSuite -update` (plus a
// second run with -short for load-soak-short).
var update = flag.Bool("update", false, "rewrite testdata/scenario_logs.sha256 from this run")

// goldenPath lists the SHA-256 of every canned scenario's log in sha256sum
// format. The logs are a pure function of (seed, script) on the virtual
// clock, so any refactor of the live frame loop that claims "same
// behaviour" must leave this file byte-identical.
const goldenPath = "testdata/scenario_logs.sha256"

var goldenMu sync.Mutex

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	sums := make(map[string]string)
	f, err := os.Open(goldenPath)
	if err != nil {
		if *update && os.IsNotExist(err) {
			return sums
		}
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
			sums[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sums
}

// checkGolden compares the scenario log's checksum with the recorded one,
// or records it under -update (merging into the file, since one run covers
// either load-soak or load-soak-short, never both).
func checkGolden(t *testing.T, name string, log []byte) {
	t.Helper()
	got := fmt.Sprintf("%x", sha256.Sum256(log))
	goldenMu.Lock()
	defer goldenMu.Unlock()
	sums := readGolden(t)
	if !*update {
		if want, ok := sums[name]; !ok {
			t.Fatalf("no golden checksum for %q in %s (run with -update)", name, goldenPath)
		} else if got != want {
			t.Fatalf("log checksum %s differs from golden %s: the scenario's behaviour changed", got, want)
		}
		return
	}
	sums[name] = got
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	var out bytes.Buffer
	for _, n := range names {
		fmt.Fprintf(&out, "%s  %s\n", sums[n], n)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioSuite is the acceptance gate for the canned suite: every
// scenario runs twice, must satisfy its own Verify both times, and must
// produce byte-identical logs — the engine's determinism contract. Runs are
// parallel across scenarios (each owns its clock, manager, and network).
// Under -race the determinism re-run is skipped (race instrumentation makes
// the sim-stepping scenarios ~15x slower and the byte-compare adds nothing
// the plain run doesn't already enforce — CI's no-race step runs this test
// un-instrumented); the race job still executes every scenario once. Each
// log that is byte-compared is also held against its golden checksum.
//
// Under -short or -race the full load-soak (hundreds of sessions,
// thousands of viewers — minutes when race-instrumented) is substituted
// with its CI-sized variant, and that variant's determinism re-run
// executes even under -race: it is small enough, and the race job relies
// on it to keep the overload path's log contract covered. The full soak
// runs in the un-instrumented CI step alongside the other race-skipped
// regression tests.
func TestScenarioSuite(t *testing.T) {
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			shortSoak := (testing.Short() || testutil.RaceEnabled) && sc.Name == "load-soak"
			if shortSoak {
				sc = LoadSoakShort()
			}
			first, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Verify == nil {
				t.Fatal("canned scenario without a Verify")
			}
			if err := sc.Verify(first); err != nil {
				t.Logf("log:\n%s", first.Log)
				t.Fatalf("verify: %v", err)
			}
			if testutil.RaceEnabled && !shortSoak {
				return
			}
			second, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Verify(second); err != nil {
				t.Fatalf("verify (second run): %v", err)
			}
			if !bytes.Equal(first.Log, second.Log) {
				a, b := first.Log, second.Log
				i := 0
				for i < len(a) && i < len(b) && a[i] == b[i] {
					i++
				}
				lo := i - 120
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("same seed, diverging logs at byte %d:\n run1: …%s\n run2: …%s",
					i, a[lo:min(i+120, len(a))], b[lo:min(i+120, len(b))])
			}
			checkGolden(t, sc.Name, first.Log)
		})
	}
}

// TestScenarioPoolWidthInvariant pins the frame-compute pool's determinism
// contract at the system level: the same scenario produces byte-identical
// logs whether every session's sim sweeps and extraction run inline
// (ComputeWorkers 1) or fan out over a 4-slot pool. Pool workers are
// compute-only — they never wait on the virtual clock — and pooled results
// are byte-identical to inline, so the log cannot depend on pool width.
func TestScenarioPoolWidthInvariant(t *testing.T) {
	t.Parallel()
	var base Scenario
	for _, sc := range All() {
		if sc.Name == "steady-state" {
			base = sc
			break
		}
	}
	if base.Name == "" {
		t.Fatal("steady-state scenario missing from the canned suite")
	}

	inline := base
	inline.ComputeWorkers = 1
	pooled := base
	pooled.ComputeWorkers = 4

	a, err := Run(inline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pooled)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Verify(b); err != nil {
		t.Fatalf("verify (pooled run): %v", err)
	}
	if !bytes.Equal(a.Log, b.Log) {
		i := 0
		for i < len(a.Log) && i < len(b.Log) && a.Log[i] == b.Log[i] {
			i++
		}
		lo := i - 120
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("pool width changed the log at byte %d:\n inline: …%s\n pooled: …%s",
			i, a.Log[lo:min(i+120, len(a.Log))], b.Log[lo:min(i+120, len(b.Log))])
	}
}

// TestScenarioNoGoroutineLeak runs the churn-heavy scenarios — viewer
// crowds and the overload soak with its scripted evictions — and checks
// the process returns to its baseline goroutine population after Shutdown:
// no leaked session loops, prober, timers, or eviction victims.
func TestScenarioNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := Run(FlashCrowd()); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(LoadSoakShort()); err != nil {
		t.Fatal(err)
	}
	// Goroutine exit is an OS-scheduler fact the virtual clock cannot
	// observe, so this poll runs on the wall clock by nature.
	deadline := time.Now().Add(5 * time.Second) //ricsa:wallclock goroutine teardown is wall-time, not virtual-clock, state
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) { //ricsa:wallclock bounded failsafe for the wall-time teardown poll
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d > baseline %d after shutdown\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond) //ricsa:wallclock backoff while real goroutines unwind
	}
}

// TestEngineEventErrors pins the structural-failure path: unknown aliases
// and links fail the run instead of being silently skipped.
func TestEngineEventErrors(t *testing.T) {
	t.Parallel()
	_, err := Run(Scenario{
		Name:     "bad-alias",
		Duration: time.Second,
		Events:   []Event{ViewersJoin(0, "ghost", 1)},
	})
	if err == nil {
		t.Fatal("unknown alias accepted")
	}
	_, err = Run(Scenario{
		Name:     "bad-link",
		Duration: time.Second,
		Events:   []Event{LinkDown(0, netsim.ORNL, netsim.GaTech+"x")},
	})
	if err == nil {
		t.Fatal("unknown link accepted")
	}
	_, err = Run(Scenario{
		Name:     "late-event",
		Duration: time.Second,
		Events:   []Event{Remeasure(2 * time.Second)},
	})
	if err == nil {
		t.Fatal("event beyond Duration accepted")
	}
}

// TestSessionChurnReleasesSlots pins that scripted session churn flows
// through the live manager's slot accounting.
func TestSessionChurnReleasesSlots(t *testing.T) {
	t.Parallel()
	var mid, end int
	sc := Scenario{
		Name:     "churn-accounting",
		Seed:     3,
		Duration: 4 * time.Second,
		Events: []Event{
			StartSession(0, "a", sessionRequest(netsim.GaTech, netsim.ORNL)),
			StartSession(time.Second, "b", sessionRequest(netsim.OSU, netsim.ORNL)),
			{At: 2 * time.Second, Name: "check-mid",
				Apply: func(e *Engine) error { mid = e.Mgr().Len(); return nil }},
			StopSession(3*time.Second, "b"),
			{At: 3500 * time.Millisecond, Name: "check-end",
				Apply: func(e *Engine) error { end = e.Mgr().Len(); return nil }},
		},
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if mid != 2 || end != 1 {
		t.Fatalf("live sessions mid=%d end=%d, want 2 and 1", mid, end)
	}
	if r.Frames["b"] == 0 {
		t.Fatal("stopped session lost its final counters")
	}
	if len(r.Violations) != 0 {
		t.Fatalf("violations: %v", r.Violations)
	}
}
