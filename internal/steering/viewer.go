package steering

import (
	"context"
	"fmt"
	"sync"

	"ricsa/internal/cost"
)

// This file is the session's delivery side: how viewers attach, which frame
// a blocking wait or a non-blocking poll hands them, the on-demand render
// of a frame produced while nobody watched, and the per-delivery
// bookkeeping behind the slow-consumer policy.

// Viewer is a tracked per-client attachment to a ManagedSession, the
// backpressure-aware successor to the presence-only Attach: the session
// remembers the newest frame each Viewer has consumed, and a Viewer that
// falls more than ManagerConfig.MaxViewerLag frames behind the live
// sequence is evicted at the next publish — its Wait/Poll return
// ErrViewerEvicted, its fan-out slot frees, and the session never buffers
// for it. The web front end attaches one Viewer per long-polling client;
// the scenario engine scripts thousands of them on the virtual clock.
//
// All Viewer state is guarded by the owning session's mutex; a Viewer is
// safe for concurrent use, though a long-poll client naturally serializes
// its own calls.
type Viewer struct {
	s *ManagedSession
	// delivered is the newest frame sequence this viewer has consumed;
	// the eviction scan compares it against the published sequence.
	delivered uint64
	evicted   bool
	closed    bool
	// tier is the viewer's negotiated quality rung (DESIGN §14), fixed at
	// attach: the hint clamped to the manager's MaxTier budget. The
	// session encodes each tier with at least one subscriber; this
	// viewer's Wait/Poll serve its tier's frames, falling back to the full
	// frame when the tier has not been encoded yet.
	tier cost.Tier
	// keySeq is the frame seq of the delta keyframe this viewer has been
	// served (0 = none). A delta viewer whose keySeq lags the session's
	// retained keyframe is served the key before any patch.
	keySeq uint64
}

// Attach registers a viewer and returns its detach function. The hub calls
// this once per watching client so Status can report fan-out.
func (s *ManagedSession) Attach() (detach func()) {
	s.mu.Lock()
	s.viewers++
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.viewers--
			s.mu.Unlock()
		})
	}
}

// AttachViewer registers a tracked full-resolution viewer. The viewer
// joins at the live edge: its lag starts at zero and only grows if it
// stops consuming. The caller must Close it (eviction also releases it).
func (s *ManagedSession) AttachViewer() *Viewer {
	return s.AttachViewerTier(cost.TierFull)
}

// AttachViewerTier registers a tracked viewer at the hinted quality tier,
// clamped to the manager's MaxTier budget — the subscribe-time half of the
// tier negotiation. A delta-tier viewer is served the session's retained
// keyframe on its first frame, so it always has a reference canvas.
func (s *ManagedSession) AttachViewerTier(hint cost.Tier) *Viewer {
	tier := hint.Clamp(s.mgr.cfg.MaxTier)
	if int(tier) >= cost.NumTiers {
		tier = cost.TierFull
	}
	s.mu.Lock()
	v := &Viewer{s: s, delivered: s.seq, tier: tier}
	s.tracked[v] = struct{}{}
	s.viewers++
	s.tierDemand[tier]++
	s.mu.Unlock()
	s.mgr.tel.ViewersAttached.Add(1)
	return v
}

// Tier reports the viewer's negotiated quality tier.
func (v *Viewer) Tier() cost.Tier { return v.tier }

// Close detaches the viewer. It is idempotent, and a no-op after
// eviction (the eviction already released the slot).
func (v *Viewer) Close() {
	s := v.s
	s.mu.Lock()
	if !v.closed && !v.evicted {
		v.closed = true
		delete(s.tracked, v)
		s.viewers--
		s.tierDemand[v.tier]--
		s.mgr.tel.ViewersDetached.Add(1)
	}
	s.mu.Unlock()
}

// sentLocked is the per-delivery bookkeeping: the viewer's lag cursor moves
// up to the frame just handed over, and the frame is counted against the
// tier it was encoded at. A nil viewer is the presence-only WaitFrame path,
// which tracks nothing.
func (v *Viewer) sentLocked(tier cost.Tier, seq uint64, frame []byte) {
	if v == nil {
		return
	}
	if seq > v.delivered {
		v.delivered = seq
	}
	tel := v.s.mgr.tel
	tel.TierFramesSent[tier].Add(1)
	tel.TierBytesSent[tier].Add(uint64(len(frame)))
}

// Wait blocks until a frame with sequence > since exists, the context
// ends, the session is destroyed (ErrNoSession), or the viewer is
// evicted (ErrViewerEvicted).
func (v *Viewer) Wait(ctx context.Context, since uint64) (uint64, []byte, error) {
	return v.s.waitFrame(ctx, since, v)
}

// waitFrame is the shared long-poll core: it blocks until a frame with
// sequence > since exists (or ctx ends), rendering on demand a frame that
// lazy rendering skipped. With a tracked viewer it also enforces the
// eviction contract — a parked waiter is woken by the
// publish broadcast of the frame whose eviction scan removed it and
// returns ErrViewerEvicted — and records frame delivery for the viewer's
// lag accounting.
func (s *ManagedSession) waitFrame(ctx context.Context, since uint64, v *Viewer) (uint64, []byte, error) {
	for {
		s.mu.Lock()
		if v != nil && v.evicted {
			s.mu.Unlock()
			return 0, nil, ErrViewerEvicted
		}
		// A delta viewer that has not seen the current keyframe lineage is
		// served the retained keyframe before anything else — region patches
		// are keyframe-relative, so the key plus the latest patch is a
		// complete reconstruction. The since guard keeps stateless long-poll
		// clients (one fresh Viewer per HTTP request) from being re-served a
		// key their cursor already covers.
		if v != nil && v.tier == cost.TierDelta && s.deltaKey != nil &&
			v.keySeq != s.deltaKeySeq && s.deltaKeySeq > since {
			v.keySeq = s.deltaKeySeq
			seq, frame := s.deltaKeySeq, s.deltaKey
			v.sentLocked(v.tier, seq, frame)
			s.mu.Unlock()
			return seq, frame, nil
		}
		// A reduced-tier viewer blocks until its own tier's frame is at
		// least as fresh as the full frame: the viewer's attach is itself
		// the demand, so the next produced frame encodes the tier. Unlike
		// the non-blocking Poll there is no full-frame fallback here — a
		// blocking wait can afford one frame period, and the reply then
		// always carries the negotiated representation.
		if v != nil && v.tier != cost.TierFull {
			if ts := s.tierSeq[v.tier]; ts > since && ts >= s.pngSeq && s.tierPNG[v.tier] != nil {
				frame := s.tierPNG[v.tier]
				v.sentLocked(v.tier, ts, frame)
				s.mu.Unlock()
				return ts, frame, nil
			}
		} else if s.pngSeq > since && s.png != nil {
			seq, png := s.pngSeq, s.png
			v.sentLocked(cost.TierFull, seq, png)
			s.mu.Unlock()
			return seq, png, nil
		}
		if s.seq > since && s.latest != nil && s.lazyTarget != s.seq {
			if err := s.lazyRender(); err != nil {
				return 0, nil, err
			}
			continue
		}
		ch := s.notify
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-s.stop:
			return 0, nil, fmt.Errorf("%w: session destroyed", ErrNoSession)
		case <-ch:
		}
	}
}

// lazyRender renders the current frame on demand: the loop produced
// frames while idle, and a waiter now wants the newest one. It is called
// with s.mu held and returns with it released. The caller claims the
// current frame (single-flight: concurrent waiters see the claim and wait
// on notify instead of rendering redundantly) and renders outside the lock,
// with its own buffers since the producer may be running; a racing producer
// may publish a newer frame meanwhile, in which case this result is simply
// superseded.
func (s *ManagedSession) lazyRender() error {
	field, req := s.latest, s.req
	target := s.seq
	s.lazyTarget = target
	w, h := s.Width, s.Height
	s.mu.Unlock()
	img, err := RenderDataset(field, req, w, h)
	var png []byte
	if err == nil {
		png, err = img.PNG()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lazyTarget == target {
		s.lazyTarget = 0
	}
	// Wake the waiters blocked behind the single-flight claim — on failure
	// too, so another waiter may retry.
	s.broadcastLocked()
	if err != nil {
		s.renderErr = err
		return err
	}
	if target > s.pngSeq {
		s.png = png
		s.pngSeq = target
		s.renders++
		s.mgr.tel.TierEncodes[cost.TierFull].Add(1)
		if s.seq == target {
			s.latest = nil
		}
	}
	return nil
}

// Poll is the non-blocking consume: it returns the newest rendered frame
// if one is newer than what this viewer has seen, (0, nil, nil) when
// nothing new exists, and ErrViewerEvicted after eviction. The scenario
// engine's scripted viewers use Poll — a blocked Wait would park a
// goroutine the virtual clock cannot see. Reduced-tier viewers are served
// their tier's frame when it is at least as fresh as the full frame.
func (v *Viewer) Poll() (uint64, []byte, error) {
	s := v.s
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case v.evicted:
		return 0, nil, ErrViewerEvicted
	case v.closed:
		return 0, nil, ErrNoSession
	}
	// Keyframe first: a delta viewer behind the current key lineage gets
	// the retained keyframe; the next poll serves the latest patch, which
	// reconstructs the current frame (patches are keyframe-relative).
	if v.tier == cost.TierDelta && s.deltaKey != nil && v.keySeq != s.deltaKeySeq {
		v.keySeq = s.deltaKeySeq
		v.sentLocked(v.tier, s.deltaKeySeq, s.deltaKey)
		return s.deltaKeySeq, s.deltaKey, nil
	}
	if v.tier != cost.TierFull {
		if ts := s.tierSeq[v.tier]; ts > v.delivered && ts >= s.pngSeq && s.tierPNG[v.tier] != nil {
			v.sentLocked(v.tier, ts, s.tierPNG[v.tier])
			return ts, s.tierPNG[v.tier], nil
		}
	}
	if s.pngSeq > v.delivered && s.png != nil {
		v.sentLocked(cost.TierFull, s.pngSeq, s.png)
		return s.pngSeq, s.png, nil
	}
	// Nothing rendered past this viewer's last frame. Mark the bare
	// sequence as observed anyway: a Poll is proof the consumer is live,
	// and lag must measure consumption stall, not rendering gaps.
	if s.seq > v.delivered {
		v.delivered = s.seq
	}
	return 0, nil, nil
}

// Evicted reports whether the slow-consumer policy removed this viewer.
func (v *Viewer) Evicted() bool {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.evicted
}
