package steering

import (
	"bytes"
	"context"
	"image/png"
	"testing"

	"ricsa/internal/cost"
	"ricsa/internal/pipeline"
	"ricsa/internal/telemetry"
	"ricsa/internal/viz"
)

// newTierTestSession builds a manager with the given tier budget and a
// hand-driven session (no lifecycle goroutine: the test owns produce).
func newTierTestSession(t *testing.T, maxTier cost.Tier) (*SessionManager, *ManagedSession) {
	t.Helper()
	m := NewSessionManager(ManagerConfig{MaxSessions: 1, MaxTier: maxTier, ReoptimizeEvery: 1 << 30})
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	req := DefaultRequest()
	req.NX, req.NY, req.NZ = 20, 12, 12
	req.StepsPerFrame = 1
	s, err := newManagedSession(m, req)
	if err != nil {
		t.Fatal(err)
	}
	s.Width, s.Height = 128, 128
	s.sim.SetWorkers(1)
	return m, s
}

func decodePNGSize(t *testing.T, b []byte) (int, int) {
	t.Helper()
	img, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return img.Bounds().Dx(), img.Bounds().Dy()
}

// TestViewerTierNegotiationAndServing covers the subscribe-time half of the
// tier ladder: viewers negotiate a tier at attach, the producer encodes
// once per distinct demanded tier, and each viewer's Poll serves its own
// tier's frames — downscaled PNGs at the reduced dimensions, delta wire
// frames starting with a keyframe — while telemetry reconciles encode
// counts against the frames actually produced.
func TestViewerTierNegotiationAndServing(t *testing.T) {
	m, s := newTierTestSession(t, cost.TierDelta)

	vFull := s.AttachViewer()
	defer vFull.Close()
	vHalf := s.AttachViewerTier(cost.TierHalf)
	defer vHalf.Close()
	vQuarter := s.AttachViewerTier(cost.TierQuarter)
	defer vQuarter.Close()
	vDelta := s.AttachViewerTier(cost.TierDelta)
	defer vDelta.Close()
	if vFull.Tier() != cost.TierFull || vHalf.Tier() != cost.TierHalf ||
		vQuarter.Tier() != cost.TierQuarter || vDelta.Tier() != cost.TierDelta {
		t.Fatal("attach did not record the hinted tiers")
	}

	const frames = 3
	for i := 0; i < frames; i++ {
		s.produce(telemetry.CauseTick)
	}

	seq, full, err := vFull.Poll()
	if err != nil || seq == 0 {
		t.Fatalf("full poll: seq %d, %v", seq, err)
	}
	if w, h := decodePNGSize(t, full); w != 128 || h != 128 {
		t.Fatalf("full frame %dx%d, want 128x128", w, h)
	}
	hseq, half, err := vHalf.Poll()
	if err != nil || hseq != seq {
		t.Fatalf("half poll: seq %d vs full %d, %v", hseq, seq, err)
	}
	if w, h := decodePNGSize(t, half); w != 64 || h != 64 {
		t.Fatalf("half frame %dx%d, want 64x64", w, h)
	}
	qseq, quarter, err := vQuarter.Poll()
	if err != nil || qseq != seq {
		t.Fatalf("quarter poll: seq %d vs full %d, %v", qseq, seq, err)
	}
	if w, h := decodePNGSize(t, quarter); w != 32 || h != 32 {
		t.Fatalf("quarter frame %dx%d, want 32x32", w, h)
	}
	// The delta viewer is served the retained keyframe first, then the
	// latest patch; keyframe-relative reconstruction must reproduce the
	// decoded full-resolution frame pixel for pixel.
	var dec viz.DeltaDecoder
	var canvas *viz.Image
	var deltaPolls uint64
	lastSeq := uint64(0)
	for {
		dseq, delta, err := vDelta.Poll()
		if err != nil {
			t.Fatalf("delta poll: %v", err)
		}
		if delta == nil {
			break
		}
		deltaPolls++
		f, err := viz.ParseDeltaFrame(delta)
		if err != nil {
			t.Fatalf("delta frame unparseable: %v", err)
		}
		if deltaPolls == 1 && f.Kind != viz.DeltaKey {
			t.Fatalf("first delta frame %v, want a keyframe", f.Kind)
		}
		if canvas, err = dec.Apply(f); err != nil {
			t.Fatalf("delta apply: %v", err)
		}
		lastSeq = dseq
	}
	if deltaPolls == 0 || lastSeq != seq {
		t.Fatalf("delta viewer reached seq %d in %d polls, want live edge %d", lastSeq, deltaPolls, seq)
	}
	if canvas.W != 128 || canvas.H != 128 {
		t.Fatalf("delta canvas %dx%d, want 128x128", canvas.W, canvas.H)
	}
	fullImg, err := png.Decode(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < canvas.H; y++ {
		for x := 0; x < canvas.W; x++ {
			r, g, b, a := fullImg.At(x, y).RGBA()
			i := 4 * (y*canvas.W + x)
			if canvas.Pix[i] != uint8(r>>8) || canvas.Pix[i+1] != uint8(g>>8) ||
				canvas.Pix[i+2] != uint8(b>>8) || canvas.Pix[i+3] != uint8(a>>8) {
				t.Fatalf("delta reconstruction diverged from the full frame at (%d,%d)", x, y)
			}
		}
	}

	// The producer encoded every frame once per distinct demanded tier.
	snap := m.Telemetry().Snapshot()
	for tier := 0; tier < cost.NumTiers; tier++ {
		if snap.TierEncodes[tier] != frames {
			t.Fatalf("tier %v encodes %d, want %d", cost.Tier(tier), snap.TierEncodes[tier], frames)
		}
	}
	// Every delivered frame was accounted to its viewer's tier.
	for tier, want := range map[cost.Tier]uint64{
		cost.TierFull: 1, cost.TierHalf: 1, cost.TierQuarter: 1, cost.TierDelta: deltaPolls,
	} {
		if snap.TierFramesSent[tier] != want {
			t.Fatalf("tier %v frames sent %d, want %d", tier, snap.TierFramesSent[tier], want)
		}
		if snap.TierBytesSent[tier] == 0 {
			t.Fatalf("tier %v bytes sent 0", tier)
		}
	}
	if snap.TierBytesSent[cost.TierQuarter] >= snap.TierBytesSent[cost.TierFull] {
		t.Fatal("quarter tier frame not smaller than full frame")
	}

	// A delta viewer joining mid-stream is served the retained keyframe
	// first, so it always has a reference canvas — no forced re-key.
	vLate := s.AttachViewerTier(cost.TierDelta)
	defer vLate.Close()
	_, lateFrame, err := vLate.Poll()
	if err != nil {
		t.Fatal(err)
	}
	lf, err := viz.ParseDeltaFrame(lateFrame)
	if err != nil {
		t.Fatalf("late delta frame unparseable: %v", err)
	}
	if lf.Kind != viz.DeltaKey {
		t.Fatalf("late delta subscriber got %v, want a keyframe", lf.Kind)
	}
}

// TestViewerTierClampedByBudget: hints past the manager's MaxTier clamp
// down, and with the zero-value budget every viewer is full-resolution —
// the historical behaviour.
func TestViewerTierClampedByBudget(t *testing.T) {
	_, s := newTierTestSession(t, cost.TierFull)
	v := s.AttachViewerTier(cost.TierQuarter)
	defer v.Close()
	if v.Tier() != cost.TierFull {
		t.Fatalf("tier %v escaped the full-resolution budget", v.Tier())
	}
	s.produce(telemetry.CauseTick)
	seq, frame, err := v.Poll()
	if err != nil || seq == 0 {
		t.Fatalf("poll: %d, %v", seq, err)
	}
	if w, h := decodePNGSize(t, frame); w != 128 || h != 128 {
		t.Fatalf("clamped viewer got %dx%d, want the full frame", w, h)
	}
	// No reduced tier was demanded, so none was encoded.
	s.mu.Lock()
	defer s.mu.Unlock()
	for tier := 1; tier < cost.NumTiers; tier++ {
		if s.tierPNG[tier] != nil {
			t.Fatalf("undemanded tier %v was encoded", cost.Tier(tier))
		}
	}
}

// TestViewerTierFallbackBeforeEncode: a reduced-tier viewer attached after
// the last publish is served the full frame until its tier is encoded,
// then switches to its own tier.
func TestViewerTierFallbackBeforeEncode(t *testing.T) {
	_, s := newTierTestSession(t, cost.TierQuarter)
	warm := s.AttachViewer()
	defer warm.Close()
	s.produce(telemetry.CauseTick)

	v := s.AttachViewerTier(cost.TierHalf)
	defer v.Close()
	// The half tier has never been encoded: Poll returns nothing new (the
	// viewer joined at the live edge), and after one more produce the tier
	// frame exists and is served.
	if seq, frame, err := v.Poll(); err != nil || frame != nil {
		t.Fatalf("pre-encode poll: %d, %d bytes, %v", seq, len(frame), err)
	}
	s.produce(telemetry.CauseTick)
	seq, frame, err := v.Poll()
	if err != nil || frame == nil {
		t.Fatalf("post-encode poll: %d, %v", seq, err)
	}
	if w, h := decodePNGSize(t, frame); w != 64 || h != 64 {
		t.Fatalf("half viewer got %dx%d, want 64x64", w, h)
	}

	// Closing the only half viewer drops the demand; the next frame stops
	// encoding the tier (the published slot simply goes stale).
	v.Close()
	s.mu.Lock()
	staleSeq := s.tierSeq[cost.TierHalf]
	s.mu.Unlock()
	s.produce(telemetry.CauseTick)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tierSeq[cost.TierHalf] != staleSeq {
		t.Fatal("undemanded tier kept encoding after its last viewer closed")
	}
}

// TestLoneClientTreeStaysFullResolution: every session's mapping is a tree,
// but a lone ClientNode is consulted at TierFull whatever the manager's
// budget — the one rule that separates it from a ClientNodes session — so
// its single branch is never degraded, no reduced tier is encoded without a
// viewer negotiating one, and the status path still runs source → client.
func TestLoneClientTreeStaysFullResolution(t *testing.T) {
	m, s := newTierTestSession(t, cost.TierDelta)
	real := m.optFn
	var asked []cost.Tier
	m.optFn = func(p *pipeline.Pipeline, src string, dsts []string, maxTier cost.Tier) (*pipeline.VRTree, error) {
		asked = append(asked, maxTier)
		return real(p, src, dsts, maxTier)
	}
	v := s.AttachViewer()
	defer v.Close()
	s.produce(telemetry.CauseTick)

	tree := s.Tree()
	if tree == nil || len(tree.Branches) != 1 || tree.Branches[0].Tier != cost.TierFull {
		t.Fatalf("lone client installed %v, want one full-resolution branch", tree)
	}
	req := s.Request()
	path, _ := s.Status()["vrt_path"].([]string)
	if len(path) < 2 || path[0] != req.SourceNode || path[len(path)-1] != req.ClientNode {
		t.Fatalf("vrt_path %v does not run %s -> %s", path, req.SourceNode, req.ClientNode)
	}
	if branches, _ := s.Status()["tree_branches"].([]map[string]any); len(branches) != 1 {
		t.Fatalf("tree_branches = %v, want one entry", s.Status()["tree_branches"])
	}
	s.mu.Lock()
	for tier := 1; tier < cost.NumTiers; tier++ {
		if s.tierPNG[tier] != nil {
			t.Fatalf("tier %v encoded with no tiered viewer", cost.Tier(tier))
		}
	}
	s.mu.Unlock()

	// The same host named through ClientNodes is a fan-out of one: it is
	// solved under the manager's budget.
	req.ClientNodes = []string{req.ClientNode}
	fan, err := newManagedSession(m, req)
	if err != nil {
		t.Fatal(err)
	}
	fan.sim.SetWorkers(1)
	fan.produce(telemetry.CauseTick)
	if len(asked) != 2 || asked[0] != cost.TierFull || asked[1] != cost.TierDelta {
		t.Fatalf("consulted under budgets %v, want [full delta]", asked)
	}
}
