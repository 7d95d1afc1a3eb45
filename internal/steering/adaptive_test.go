package steering

import (
	"context"
	"testing"
	"time"

	"ricsa/internal/netsim"
)

// crossesHop reports whether path crosses the link a–b in either direction.
func crossesHop(path []string, a, b string) bool {
	for i := 0; i+1 < len(path); i++ {
		if (path[i] == a && path[i+1] == b) || (path[i] == b && path[i+1] == a) {
			return true
		}
	}
	return false
}

// TestAdaptiveReconfigurationOnLinkDegradation reproduces the runtime
// behaviour of Section 5.3.2 on a live session: when the GaTech–UT hop of
// the installed loop collapses, the re-measured graph trips the Adapter,
// the CM recomputes the VRT off the dead hop, and the new loop's predicted
// delay sits below the old loop re-priced on the degraded graph.
func TestAdaptiveReconfigurationOnLinkDegradation(t *testing.T) {
	m := NewSessionManager(ManagerConfig{
		MaxSessions:     1,
		ReoptimizeEvery: 1 << 20, // reconfiguration must come from the Adapter
		Seed:            21,
		AdaptTolerance:  0.5,
		AdaptWindow:     2,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	// Large enough that transfer cost routes the loop through UT.
	req := smallRequest()
	req.SourceNode, req.ClientNode = netsim.GaTech, netsim.ORNL
	req.NX, req.NY, req.NZ = 48, 48, 48
	req.BlockEdge = 8
	s, err := m.CreateTuned(req, 3*time.Millisecond, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first consultation", func() bool { return s.Reoptimizations() >= 1 })
	pipe, src, before, _, ok := s.Mapping()
	if !ok {
		t.Fatalf("no mapping (optimize_error=%v)", s.Status()["optimize_error"])
	}
	path := s.Tree().BranchPath(0)
	if !crossesHop(path, netsim.GaTech, netsim.UT) {
		t.Fatalf("heavy pipeline should route via %s-%s, got %v", netsim.GaTech, netsim.UT, path)
	}
	if s.Adaptations() != 0 {
		t.Fatalf("adapted on a healthy network (%d times)", s.Adaptations())
	}

	// Collapse the GaTech–UT data path to 2% of its capacity, then register
	// the drift with a full sweep (standing in for enough prober ticks).
	l := m.CM().Network().FindLink(netsim.GaTech, netsim.UT)
	l.AB.SetBandwidth(l.AB.Config().Bandwidth * 0.02)
	l.BA.SetBandwidth(l.BA.Config().Bandwidth * 0.02)
	m.CM().MeasureAll()
	degraded, err := m.CM().PredictPlacement(pipe, src, before[0])
	if err != nil {
		t.Fatal(err)
	}

	waitUntil(t, "adapter-forced reconfiguration off the dead hop", func() bool {
		tree := s.Tree()
		return s.Adaptations() >= 1 && tree != nil &&
			!crossesHop(tree.BranchPath(0), netsim.GaTech, netsim.UT)
	})
	_, _, _, recovered, ok := s.Mapping()
	if !ok {
		t.Fatal("mapping lost after reconfiguration")
	}
	if recovered >= degraded {
		t.Fatalf("no recovery: old loop on the degraded graph %.3fs, new loop %.3fs (path %v)",
			degraded, recovered, s.Tree().BranchPath(0))
	}
}
