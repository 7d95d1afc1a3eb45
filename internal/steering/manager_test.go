package steering

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ricsa/internal/clock"
	"ricsa/internal/netsim"
)

// testManager builds a manager with fast, small-session defaults.
func testManager(t *testing.T, maxSessions int) *SessionManager {
	t.Helper()
	m := NewSessionManager(ManagerConfig{
		MaxSessions:     maxSessions,
		ReoptimizeEvery: 2,
		Seed:            42,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

// smallRequest keeps per-frame work tiny so many sessions can run at once.
func smallRequest() Request {
	req := DefaultRequest()
	req.NX, req.NY, req.NZ = 16, 8, 8
	req.StepsPerFrame = 1
	req.BlockEdge = 4
	return req
}

func createFast(t *testing.T, m *SessionManager) *ManagedSession {
	t.Helper()
	s, err := m.CreateTuned(smallRequest(), 3*time.Millisecond, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestConcurrentSessions drives the acceptance criterion: >= 8 concurrent
// sessions with independent steering. Each session is created, produces
// frames, is steered to a distinct left pressure, and the steering lands
// only in its own simulator.
func TestConcurrentSessions(t *testing.T) {
	const n = 8
	m := testManager(t, n)

	sessions := make([]*ManagedSession, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := m.CreateTuned(smallRequest(), 3*time.Millisecond, 48, 48)
			if err != nil {
				errs <- err
				return
			}
			sessions[i] = s
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m.Len() != n {
		t.Fatalf("live sessions %d, want %d", m.Len(), n)
	}

	// Every session produces frames independently.
	for i, s := range sessions {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		seq, png, err := s.waitFrame(ctx, 0, nil)
		cancel()
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if seq == 0 || len(png) == 0 {
			t.Fatalf("session %d produced no frame", i)
		}
	}

	// Independent steering: distinct pressures per session, in parallel.
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *ManagedSession) {
			defer wg.Done()
			s.Steer(map[string]float64{"left_pressure": float64(10 + i)})
		}(i, s)
	}
	wg.Wait()
	for i, s := range sessions {
		want := float64(10 + i)
		waitUntil(t, fmt.Sprintf("session %d pressure %v", i, want), func() bool {
			return s.sim.Params().LeftPressure == want
		})
	}

	// Concurrent destroys free every slot.
	for _, s := range sessions {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := m.Destroy(id); err != nil {
				t.Error(err)
			}
		}(s.ID)
	}
	wg.Wait()
	if m.Len() != 0 {
		t.Fatalf("live sessions %d after destroy, want 0", m.Len())
	}
}

func TestSessionLimit(t *testing.T) {
	m := testManager(t, 2)
	a := createFast(t, m)
	createFast(t, m)
	if _, err := m.CreateTuned(smallRequest(), 0, 0, 0); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("want ErrSessionLimit, got %v", err)
	}
	// Destroying one frees a slot.
	if err := m.Destroy(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTuned(smallRequest(), 0, 0, 0); err != nil {
		t.Fatalf("create after destroy: %v", err)
	}
}

func TestDestroyUnknownSession(t *testing.T) {
	m := testManager(t, 2)
	if err := m.Destroy("nope"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("want ErrNoSession, got %v", err)
	}
}

func TestCreateRejectsUnknownSimulator(t *testing.T) {
	m := testManager(t, 2)
	req := smallRequest()
	req.Simulator = "warp-drive"
	if _, err := m.CreateTuned(req, 0, 0, 0); err == nil {
		t.Fatal("unknown simulator accepted")
	}
	if m.Len() != 0 {
		t.Fatal("failed create leaked a session slot")
	}
}

// TestSharedCacheAcrossSessions checks the cache accounting: identical
// sessions ask the CM the same (graph, pipeline, src, dst) instance, so the
// DP runs once and every later consultation hits.
func TestSharedCacheAcrossSessions(t *testing.T) {
	m := testManager(t, 4)
	var sessions []*ManagedSession
	for i := 0; i < 4; i++ {
		sessions = append(sessions, createFast(t, m))
	}
	for _, s := range sessions {
		waitUntil(t, "first CM consultation", func() bool { return s.Reoptimizations() >= 2 })
		if tree := s.Tree(); tree == nil || len(tree.Branches) != 1 {
			t.Fatal("session has no mapping after consultation")
		}
	}
	st := m.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("cache misses %d, want 1 (identical sessions share one DP run)", st.Misses)
	}
	if st.Hits < 4 {
		t.Fatalf("cache hits %d, want >= 4", st.Hits)
	}
}

// TestRemeasureInvalidates checks that a genuine network-condition change
// re-stamps the graph so the next consultations re-run the DP: a link is
// collapsed on the CM's emulated network and a full gated sweep registers
// the drift.
func TestRemeasureInvalidates(t *testing.T) {
	m := testManager(t, 1)
	s := createFast(t, m)
	waitUntil(t, "first consultation", func() bool { return s.Reoptimizations() >= 1 })
	missesBefore := m.CacheStats().Misses

	l := m.CM().Network().FindLink(netsim.GaTech, netsim.UT)
	l.AB.SetBandwidth(l.AB.Config().Bandwidth * 0.02)
	l.BA.SetBandwidth(l.BA.Config().Bandwidth * 0.02)
	m.CM().MeasureAll()

	reopts := s.Reoptimizations()
	waitUntil(t, "post-remeasure consultation", func() bool { return s.Reoptimizations() > reopts })
	waitUntil(t, "cache miss on new graph", func() bool {
		return m.CacheStats().Misses > missesBefore
	})
}

// TestPredictedDelayChargedToPacing verifies the live frame loop charges
// the installed mapping's predicted delay: a session on a collapsed
// network (whose VRT predicts a multi-second delivery) publishes far fewer
// frames than an identical session on the healthy testbed. The whole run is
// on a virtual clock, so both frame counts are exact — no sleeps, no
// tolerance for scheduler jitter.
func TestPredictedDelayChargedToPacing(t *testing.T) {
	req := smallRequest()
	req.NX, req.NY, req.NZ = 64, 32, 32 // big enough that transfer delay dominates

	frameRate := func(degrade bool) (frames uint64, predicted float64) {
		clk := clock.NewVirtual(time.Unix(0, 0))
		m := NewSessionManager(ManagerConfig{
			MaxSessions: 1, ReoptimizeEvery: 2, Seed: 42, Clock: clk,
		})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			m.Shutdown(ctx)
		}()
		if degrade {
			for _, l := range m.CM().Network().Links() {
				l.AB.SetBandwidth(l.AB.Config().Bandwidth * 0.02)
				l.BA.SetBandwidth(l.BA.Config().Bandwidth * 0.02)
			}
			m.CM().MeasureAll()
		}
		s, err := m.CreateTuned(req, 3*time.Millisecond, 48, 48)
		if err != nil {
			t.Fatal(err)
		}
		clk.AwaitArmed(1) // first produce done (it consults: pipe == nil), timer parked
		tree := s.Tree()
		if tree == nil {
			t.Fatal("no mapping installed after the first frame")
		}
		clk.Advance(700 * time.Millisecond)
		return s.Status()["frame_seq"].(uint64), tree.Delay
	}

	fastFrames, fastDelay := frameRate(false)
	slowFrames, slowDelay := frameRate(true)

	if slowDelay <= fastDelay {
		t.Fatalf("degraded VRT predicts %.3fs, not above healthy %.3fs", slowDelay, fastDelay)
	}
	if slowFrames >= fastFrames {
		t.Fatalf("slower mapping did not lower the frame rate: %d frames vs %d healthy (delays %.3fs vs %.3fs)",
			slowFrames, fastFrames, slowDelay, fastDelay)
	}
}

// TestAdaptationUnderChurn is the live half of Section 5.3.2: a session
// whose chosen path collapses mid-run gets a new VRT within the Adapter's
// deviation window — without waiting out the periodic reoptimization
// schedule — while a long-polling viewer sees monotonically increasing
// frame sequence numbers across the swap.
func TestAdaptationUnderChurn(t *testing.T) {
	m := NewSessionManager(ManagerConfig{
		MaxSessions:     1,
		ReoptimizeEvery: 1 << 20, // isolate the Adapter: no periodic reopts
		Seed:            42,
		AdaptTolerance:  0.5,
		AdaptWindow:     2,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	req := smallRequest()
	req.NX, req.NY, req.NZ = 64, 32, 32
	s, err := m.CreateTuned(req, 3*time.Millisecond, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first consultation", func() bool { return s.Reoptimizations() >= 1 })
	before := s.Tree()

	// Viewer long-polls through the whole churn, checking monotonicity.
	viewerCtx, stopViewer := context.WithCancel(context.Background())
	viewerErr := make(chan error, 1)
	go func() {
		var since uint64
		for {
			seq, png, err := s.waitFrame(viewerCtx, since, nil)
			if err != nil {
				viewerErr <- nil // context cancelled at test end
				return
			}
			if seq <= since || len(png) == 0 {
				viewerErr <- fmt.Errorf("non-monotonic frame: %d after %d", seq, since)
				return
			}
			since = seq
		}
	}()

	// Collapse every link the installed mapping uses, then register the
	// drift with a full sweep (standing in for enough prober ticks).
	path := before.BranchPath(0)
	for i := 0; i+1 < len(path); i++ {
		l := m.CM().Network().FindLink(path[i], path[i+1])
		if l == nil {
			continue
		}
		l.AB.SetBandwidth(l.AB.Config().Bandwidth * 0.02)
		l.BA.SetBandwidth(l.BA.Config().Bandwidth * 0.02)
	}
	m.CM().MeasureAll()

	waitUntil(t, "adapter-forced reconfiguration", func() bool { return s.Adaptations() >= 1 })
	waitUntil(t, "new mapping installed", func() bool {
		tree := s.Tree()
		return tree != nil && tree.Delay != before.Delay
	})
	if m.CM().Adaptations() == 0 {
		t.Fatal("manager-level adaptation counter never advanced")
	}

	// The viewer must still be receiving frames after the swap.
	seqAtSwap := s.Status()["frame_seq"].(uint64)
	waitUntil(t, "frames after the swap", func() bool {
		return s.Status()["frame_seq"].(uint64) > seqAtSwap
	})
	stopViewer()
	if err := <-viewerErr; err != nil {
		t.Fatal(err)
	}
}

// TestSteerIsovalueReoptimizes checks that changing the isovalue rebuilds
// the pipeline cost model and asks the CM again with a new fingerprint.
// The new isovalue sits below the dataset's value range so the octree cull
// keeps no blocks: extraction cost and geometry size genuinely change.
// (An isovalue cutting the same cells yields an identical cost model, and
// the consultation correctly hits the cache instead.)
func TestSteerIsovalueReoptimizes(t *testing.T) {
	m := testManager(t, 1)
	s := createFast(t, m)
	waitUntil(t, "first consultation", func() bool { return s.Reoptimizations() >= 1 })
	missesBefore := m.CacheStats().Misses

	if err := s.Steer(map[string]float64{"isovalue": 0.05}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "re-optimization with new isovalue", func() bool {
		return m.CacheStats().Misses > missesBefore
	})
}

func TestShutdownStopsEverything(t *testing.T) {
	m := NewSessionManager(ManagerConfig{MaxSessions: 4, ReoptimizeEvery: 2, Seed: 42})
	var sessions []*ManagedSession
	for i := 0; i < 3; i++ {
		s, err := m.CreateTuned(smallRequest(), 3*time.Millisecond, 48, 48)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("live sessions %d after shutdown", m.Len())
	}
	for i, s := range sessions {
		select {
		case <-s.done:
		default:
			t.Fatalf("session %d goroutine still running", i)
		}
	}
	if _, err := m.CreateTuned(smallRequest(), 0, 0, 0); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("want ErrShuttingDown, got %v", err)
	}
}

// TestViewerAccounting checks Attach/detach bookkeeping, including the
// idempotence of the detach closure.
func TestViewerAccounting(t *testing.T) {
	m := testManager(t, 1)
	s := createFast(t, m)
	d1 := s.Attach()
	d2 := s.Attach()
	if got := s.Status()["viewers"]; got != 2 {
		t.Fatalf("viewers %v, want 2", got)
	}
	d1()
	d1() // double-detach must not go negative
	d2()
	if got := s.Status()["viewers"]; got != 0 {
		t.Fatalf("viewers %v, want 0", got)
	}
}

// TestWaitFrameUnblocksOnDestroy ensures a long-polling viewer is released
// when its session is destroyed mid-wait.
func TestWaitFrameUnblocksOnDestroy(t *testing.T) {
	m := testManager(t, 1)
	s := createFast(t, m)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := s.waitFrame(context.Background(), 1<<40, nil)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := m.Destroy(s.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrNoSession) {
			t.Fatalf("want ErrNoSession, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("viewer still blocked after destroy")
	}
}
