package steering

import (
	"context"
	"testing"

	"ricsa/internal/telemetry"
	"ricsa/internal/testutil"
)

// TestProduceAllocationFlat drives a live session's frame producer by hand
// and asserts the warm steady state — solver step, snapshot, monitor
// re-pricing, isosurface extraction, rasterization, PNG encode — stays under
// a small fixed allocation bound per frame. The only per-frame allocations
// left are the published PNG copy (which must be fresh: viewers retain it),
// the notify channel, and the monitor's placement evaluation. The view-frame
// pass a view steer triggers is held to the tick pass's count.
func TestProduceAllocationFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	m := NewSessionManager(ManagerConfig{MaxSessions: 1, ReoptimizeEvery: 1 << 30})
	defer m.Shutdown(context.Background())

	req := DefaultRequest()
	req.NX, req.NY, req.NZ = 20, 12, 12
	req.StepsPerFrame = 1
	// Bypass Create so no lifecycle goroutine races the measurement; this
	// test owns produce.
	s, err := newManagedSession(m, req)
	if err != nil {
		t.Fatal(err)
	}
	s.Width, s.Height = 128, 128
	// Serial solver sweeps: goroutine spawns are the one per-step cost that
	// cannot be pooled away, so the allocation-flat mode runs them inline.
	s.sim.SetWorkers(1)
	detach := s.Attach()
	defer detach()

	// Warm up: first frame consults the CM and grows every arena.
	for i := 0; i < 3; i++ {
		s.produce(telemetry.CauseTick)
	}
	if s.Renders() == 0 {
		t.Fatal("warm-up frames did not render")
	}
	if s.Tree() == nil {
		t.Fatal("warm-up frames did not install a mapping")
	}

	allocs := testing.AllocsPerRun(10, func() {
		s.produce(telemetry.CauseTick)
	})
	t.Logf("warm produce allocs/op: %.1f", allocs)
	if allocs > 10 {
		t.Fatalf("warm produce allocates %.1f objects per frame, want <= 10", allocs)
	}

	// The view-frame pass is the same stages with no solver step and no
	// monitor re-pricing: it may not allocate more than the tick pass.
	viewAllocs := testing.AllocsPerRun(10, func() {
		s.produce(telemetry.CauseSteerView)
	})
	t.Logf("warm view-frame produce allocs/op: %.1f", viewAllocs)
	if viewAllocs > allocs {
		t.Fatalf("warm view-frame produce allocates %.1f objects per frame, the tick pass %.1f", viewAllocs, allocs)
	}
}

// TestProduceScratchKeepsPublishedFramesImmutable checks the scratch-reuse
// path never mutates bytes already handed to viewers: two consecutive frames
// must publish distinct, internally consistent PNG slices.
func TestProduceScratchKeepsPublishedFramesImmutable(t *testing.T) {
	m := NewSessionManager(ManagerConfig{MaxSessions: 1})
	defer m.Shutdown(context.Background())

	req := DefaultRequest()
	req.NX, req.NY, req.NZ = 16, 8, 8
	req.StepsPerFrame = 2
	s, err := newManagedSession(m, req)
	if err != nil {
		t.Fatal(err)
	}
	detach := s.Attach()
	defer detach()

	s.produce(telemetry.CauseTick)
	s.mu.Lock()
	first := s.png
	s.mu.Unlock()
	snapshot := append([]byte(nil), first...)

	// Steer so the next frame's pixels differ, then produce over the same
	// scratch.
	if err := s.Steer(map[string]float64{"left_pressure": 9}); err != nil {
		t.Fatal(err)
	}
	s.produce(telemetry.CauseTick)
	s.produce(telemetry.CauseTick)

	for i := range first {
		if first[i] != snapshot[i] {
			t.Fatalf("published frame byte %d changed after later frames", i)
		}
	}
	s.mu.Lock()
	second := s.png
	s.mu.Unlock()
	if &first[0] == &second[0] {
		t.Fatal("consecutive frames share a backing array")
	}
}
