package steering

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
)

func testbedHosts() []string {
	return []string{netsim.ORNL, netsim.LSU, netsim.UT, netsim.NCState, netsim.OSU, netsim.GaTech}
}

// TestEndpointMatrix drives the headline bugfix: every ordered pair of
// testbed hosts can be named as a session's endpoints, and the installed
// mapping actually starts at the requested source and ends at the requested
// client — nothing is silently answered with the GaTech -> ORNL default.
func TestEndpointMatrix(t *testing.T) {
	hosts := testbedHosts()
	m := testManager(t, 2)
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			req := smallRequest()
			req.SourceNode = src
			req.ClientNode = dst
			s, err := m.CreateTuned(req, 3*time.Millisecond, 48, 48)
			if err != nil {
				t.Fatalf("%s->%s: %v", src, dst, err)
			}
			waitUntil(t, fmt.Sprintf("%s->%s consultation", src, dst), func() bool {
				return s.Reoptimizations() >= 1
			})
			tree := s.Tree()
			if tree == nil {
				t.Fatalf("%s->%s: no mapping (optimize_error=%v)", src, dst, s.Status()["optimize_error"])
			}
			path := tree.BranchPath(0)
			if len(tree.Branches) != 1 || path[0] != src || path[len(path)-1] != dst {
				t.Fatalf("%s->%s: mapping %v ignores the requested endpoints", src, dst, tree)
			}
			// The session delivers a frame over that mapping.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_, png, err := s.waitFrame(ctx, 0, nil)
			cancel()
			if err != nil || len(png) == 0 {
				t.Fatalf("%s->%s: no frame: %v", src, dst, err)
			}
			if err := m.Destroy(s.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCreateRejectsUnknownEndpoints(t *testing.T) {
	m := testManager(t, 2)
	req := smallRequest()
	req.SourceNode = "Narnia"
	if _, err := m.CreateTuned(req, 0, 0, 0); err == nil {
		t.Fatal("unknown source node accepted")
	}
	req = smallRequest()
	req.ClientNode = "Narnia"
	if _, err := m.CreateTuned(req, 0, 0, 0); err == nil {
		t.Fatal("unknown client node accepted")
	}
	req = smallRequest()
	req.ClientNodes = []string{netsim.UT, "Narnia"}
	if _, err := m.CreateTuned(req, 0, 0, 0); err == nil {
		t.Fatal("unknown fan-out host accepted")
	}
	if m.Len() != 0 {
		t.Fatal("failed creates leaked session slots")
	}
}

// TestMultiViewerSession: a fan-out session installs a routing tree whose
// branches end at every requested viewer host, shares one prefix, and
// charges the slowest branch to its frame pacing.
func TestMultiViewerSession(t *testing.T) {
	m := testManager(t, 1)
	req := smallRequest()
	req.SourceNode = netsim.GaTech
	req.ClientNodes = []string{netsim.ORNL, netsim.UT, netsim.NCState}
	s, err := m.CreateTuned(req, 3*time.Millisecond, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "tree consultation", func() bool { return s.Reoptimizations() >= 1 })
	tree := s.Tree()
	if tree == nil {
		t.Fatalf("no tree installed (optimize_error=%v)", s.Status()["optimize_error"])
	}
	if got := tree.SharedPath()[0]; got != netsim.GaTech {
		t.Fatalf("shared path starts at %q, want GaTech", got)
	}
	if len(tree.Branches) != 3 {
		t.Fatalf("branches = %d, want 3", len(tree.Branches))
	}
	worst := 0.0
	for i, b := range tree.Branches {
		if b.Dst != req.ClientNodes[i] {
			t.Fatalf("branch %d delivers to %q, want %q", i, b.Dst, req.ClientNodes[i])
		}
		path := tree.BranchPath(i)
		if path[len(path)-1] != b.Dst {
			t.Fatalf("branch %d path %v does not end at %s", i, path, b.Dst)
		}
		if b.Delay > worst {
			worst = b.Delay
		}
	}
	if tree.Delay != worst {
		t.Fatalf("tree delay %v != slowest branch %v", tree.Delay, worst)
	}
	// Pacing charges the slowest branch on top of the base period.
	wantMin := s.FramePeriod + time.Duration(tree.Delay*float64(time.Second))
	if got := s.period(); got < wantMin {
		t.Fatalf("period %v below base+slowest-branch %v", got, wantMin)
	}
	// Status reports the tree shape.
	st := s.Status()
	if st["tree_branches"] == nil || st["vrt_delay_s"].(float64) != tree.Delay {
		t.Fatalf("status misses tree info: %v", st)
	}
	// Frames are delivered.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, png, err := s.waitFrame(ctx, 0, nil); err != nil || len(png) == 0 {
		t.Fatalf("no frame: %v", err)
	}
}

// TestMultiViewerSharedCacheAcrossSessions: identical fan-out sessions are
// one cache instance — the tree DP runs once.
func TestMultiViewerSharedCacheAcrossSessions(t *testing.T) {
	m := testManager(t, 3)
	req := smallRequest()
	req.ClientNodes = []string{netsim.ORNL, netsim.UT, netsim.NCState}
	var sessions []*ManagedSession
	for i := 0; i < 3; i++ {
		s, err := m.CreateTuned(req, 3*time.Millisecond, 48, 48)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	for _, s := range sessions {
		waitUntil(t, "tree consultations", func() bool { return s.Reoptimizations() >= 2 })
	}
	if st := m.CacheStats(); st.Misses != 1 {
		t.Fatalf("cache misses %d, want 1 (identical fan-out sessions share one tree DP run)", st.Misses)
	}
}

// TestConsultErrorRetriesNextFrame is the regression test for the failed-
// consultation accounting: an optimizer error must not count as a
// re-optimization, and the session must retry on the very next frame
// instead of waiting out the ReoptimizeEvery schedule.
func TestConsultErrorRetriesNextFrame(t *testing.T) {
	m := NewSessionManager(ManagerConfig{
		MaxSessions:     1,
		ReoptimizeEvery: 64, // schedule-based retry would take 64 frames
		Seed:            42,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})

	real := m.optFn
	var failing atomic.Bool
	failing.Store(true)
	m.optFn = func(p *pipeline.Pipeline, src string, dsts []string, maxTier cost.Tier) (*pipeline.VRTree, error) {
		if failing.Load() {
			return nil, errors.New("injected optimizer failure")
		}
		return real(p, src, dsts, maxTier)
	}

	s, err := m.CreateTuned(smallRequest(), 3*time.Millisecond, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	// Let several frames fail: the counter must not move and the error must
	// be surfaced.
	waitUntil(t, "frames under failure", func() bool {
		return s.Status()["frame_seq"].(uint64) >= 5
	})
	if got := s.Reoptimizations(); got != 0 {
		t.Fatalf("failed consultations counted as %d re-optimizations", got)
	}
	if s.Status()["optimize_error"] == nil {
		t.Fatal("optimizer error not surfaced in status")
	}

	// Heal the optimizer: the next frame's retry must install a mapping
	// long before the 64-frame schedule would have.
	seqAtHeal := s.Status()["frame_seq"].(uint64)
	failing.Store(false)
	waitUntil(t, "mapping after heal", func() bool { return s.Reoptimizations() >= 1 })
	if frames := s.Status()["frame_seq"].(uint64) - seqAtHeal; frames > 8 {
		t.Fatalf("retry took %d frames after healing; want immediate (schedule is 64)", frames)
	}
	if s.Tree() == nil {
		t.Fatal("no mapping installed after heal")
	}
	if st := s.Status(); st["optimize_error"] != nil {
		t.Fatalf("stale optimizer error: %v", st["optimize_error"])
	}
}

// TestLazyRenderSkipsIdleFrames is the regression test for the render hot
// path: with no attached viewer the sequence advances but nothing is
// rendered; the first WaitFrame renders the current frame on demand; an
// attached viewer turns per-frame rendering back on.
func TestLazyRenderSkipsIdleFrames(t *testing.T) {
	m := testManager(t, 1)
	s := createFast(t, m)

	waitUntil(t, "idle frames", func() bool {
		return s.Status()["frame_seq"].(uint64) >= 3
	})
	if got := s.Renders(); got != 0 {
		t.Fatalf("%d renders with zero viewers, want 0", got)
	}

	// A long-poller gets the current frame rendered on demand.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	seq, png, err := s.waitFrame(ctx, 0, nil)
	cancel()
	if err != nil || len(png) == 0 || seq == 0 {
		t.Fatalf("lazy render failed: seq=%d err=%v", seq, err)
	}
	if got := s.Renders(); got < 1 {
		t.Fatal("on-demand render not counted")
	}

	// Sequence numbers stay monotone across idle and rendered frames.
	since := seq
	detach := s.Attach()
	defer detach()
	rendersAtAttach := s.Renders()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		nseq, npng, err := s.waitFrame(ctx, since, nil)
		cancel()
		if err != nil || len(npng) == 0 {
			t.Fatal(err)
		}
		if nseq <= since {
			t.Fatalf("non-monotone frame seq %d after %d", nseq, since)
		}
		since = nseq
	}
	waitUntil(t, "per-frame rendering with a viewer", func() bool {
		return s.Renders() > rendersAtAttach
	})
}

// TestLazyRenderSingleFlight: a burst of concurrent long-pollers against an
// idle session pays for one on-demand render per frame, not one per waiter.
func TestLazyRenderSingleFlight(t *testing.T) {
	m := testManager(t, 1)
	s, err := m.CreateTuned(smallRequest(), 300*time.Millisecond, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first idle frame", func() bool {
		return s.Status()["frame_seq"].(uint64) >= 1
	})

	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, png, err := s.waitFrame(ctx, 0, nil); err != nil || len(png) == 0 {
				t.Errorf("waiter: %v", err)
			}
		}()
	}
	wg.Wait()
	// The slow frame period bounds how many distinct frames the burst can
	// straddle; the claim must keep renders far below the waiter count.
	if got := s.Renders(); got == 0 || got > 2 {
		t.Fatalf("%d renders for %d concurrent waiters, want 1 (2 with a frame boundary)", got, waiters)
	}
}

// TestNextDelaySubtractsElapsed is the regression test for pacing drift:
// the timer delay for the next frame discounts the time produce consumed,
// flooring at zero.
func TestNextDelaySubtractsElapsed(t *testing.T) {
	m := testManager(t, 1)
	s := createFast(t, m)
	// nextDelay is poked directly below; stop the lifecycle goroutine first
	// so the probe doesn't race the live producer's lateNS handoff.
	s.halt()
	p := s.period()
	if got := s.nextDelay(0); got != p {
		t.Fatalf("nextDelay(0) = %v, want the full period %v", got, p)
	}
	if got := s.nextDelay(p / 2); got != p-p/2 {
		t.Fatalf("nextDelay(period/2) = %v, want %v", got, p-p/2)
	}
	if got := s.nextDelay(p + time.Second); got != 0 {
		t.Fatalf("nextDelay(overrun) = %v, want 0", got)
	}
}
