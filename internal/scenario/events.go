package scenario

import (
	"fmt"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/steering"
)

// Event constructors: each bakes its parameters into the Name so the
// deterministic log reads as a replayable script.

// StartSession starts a live session under alias with the given request.
func StartSession(at time.Duration, alias string, req steering.Request) Event {
	return Event{At: at,
		Name:  fmt.Sprintf("start-session alias=%s src=%s dst=%v sim=%s", alias, req.SourceNode, req.Destinations(), req.Simulator),
		Apply: func(e *Engine) error { return e.StartSession(alias, req) }}
}

// StopSession destroys the aliased session.
func StopSession(at time.Duration, alias string) Event {
	return Event{At: at, Name: "stop-session alias=" + alias,
		Apply: func(e *Engine) error { return e.StopSession(alias) }}
}

// ViewersJoin attaches n web viewers to the aliased session.
func ViewersJoin(at time.Duration, alias string, n int) Event {
	return Event{At: at, Name: fmt.Sprintf("viewers-join alias=%s n=%d", alias, n),
		Apply: func(e *Engine) error { return e.AttachViewers(alias, n) }}
}

// ViewersLeave detaches n web viewers from the aliased session.
func ViewersLeave(at time.Duration, alias string, n int) Event {
	return Event{At: at, Name: fmt.Sprintf("viewers-leave alias=%s n=%d", alias, n),
		Apply: func(e *Engine) error { return e.DetachViewers(alias, n) }}
}

// TryStartSession attempts to start a session and logs the admission
// outcome instead of failing the scenario — the load-soak primitive for
// driving the manager past its watermark on purpose.
func TryStartSession(at time.Duration, alias string, req steering.Request) Event {
	return Event{At: at,
		Name:  fmt.Sprintf("try-start-session alias=%s src=%s dst=%v sim=%s", alias, req.SourceNode, req.Destinations(), req.Simulator),
		Apply: func(e *Engine) error { return e.TryStartSession(at, alias, req) }}
}

// TrackViewers attaches n tracked (evictable) viewers to the aliased
// session. Unlike ViewersJoin's presence-only attach, these are subject to
// the slow-consumer policy: a tracked viewer that stops polling falls
// behind and is evicted once its lag exceeds MaxViewerLag.
func TrackViewers(at time.Duration, alias string, n int) Event {
	return Event{At: at, Name: fmt.Sprintf("track-viewers alias=%s n=%d", alias, n),
		Apply: func(e *Engine) error { return e.TrackViewers(alias, n) }}
}

// TrackViewersTier attaches n tracked viewers hinting a quality tier; the
// session clamps the hint to the scenario's MaxTier budget, so the same
// script negotiates different ladders under different budgets.
func TrackViewersTier(at time.Duration, alias string, n int, hint cost.Tier) Event {
	return Event{At: at, Name: fmt.Sprintf("track-viewers-tier alias=%s n=%d hint=%s", alias, n, hint),
		Apply: func(e *Engine) error { return e.TrackViewersTier(alias, n, hint) }}
}

// PollViewers polls every live tracked viewer of the given aliases once —
// the scripted stand-in for a browser's long-poll round. Viewers found
// evicted are pruned and counted; the outcome is logged so the soak's
// eviction dynamics are part of the determinism contract.
func PollViewers(at time.Duration, aliases ...string) Event {
	name := "poll-viewers"
	if n := len(aliases); n > 0 {
		name = fmt.Sprintf("poll-viewers %s..%s n=%d", aliases[0], aliases[n-1], n)
	}
	return Event{At: at, Name: name, Apply: func(e *Engine) error {
		delivered, evicted, err := e.PollViewersNow(aliases)
		if err != nil {
			return err
		}
		fmt.Fprintf(&e.log, "t=%s polled sessions=%d delivered=%d evicted=%d\n",
			fmtD(at), len(aliases), delivered, evicted)
		return nil
	}}
}

// CloseViewers closes n tracked viewers of the aliased session — the
// well-behaved disconnect path, counted as detached rather than evicted.
func CloseViewers(at time.Duration, alias string, n int) Event {
	return Event{At: at, Name: fmt.Sprintf("close-viewers alias=%s n=%d", alias, n),
		Apply: func(e *Engine) error { return e.CloseViewersNow(alias, n) }}
}

// ScaleLink multiplies both directions of a link's bandwidth by factor —
// a congestion step (factor < 1) or recovery/upgrade (factor > 1).
func ScaleLink(at time.Duration, a, b string, factor float64) Event {
	return Event{At: at, Name: fmt.Sprintf("scale-link %s-%s x%g", a, b, factor),
		Apply: func(e *Engine) error {
			l, err := e.Link(a, b)
			if err != nil {
				return err
			}
			l.ScaleBandwidth(factor)
			return nil
		}}
}

// LinkDown marks both directions of a link dark (a flap's down edge).
func LinkDown(at time.Duration, a, b string) Event {
	return Event{At: at, Name: fmt.Sprintf("link-down %s-%s", a, b),
		Apply: func(e *Engine) error {
			l, err := e.Link(a, b)
			if err != nil {
				return err
			}
			l.SetDown(true)
			return nil
		}}
}

// LinkUp restores a dark link.
func LinkUp(at time.Duration, a, b string) Event {
	return Event{At: at, Name: fmt.Sprintf("link-up %s-%s", a, b),
		Apply: func(e *Engine) error {
			l, err := e.Link(a, b)
			if err != nil {
				return err
			}
			l.SetDown(false)
			return nil
		}}
}

// LinkFlaps appends count down/up pairs spaced period apart, starting at.
func LinkFlaps(at time.Duration, a, b string, count int, period time.Duration) []Event {
	var evs []Event
	for i := 0; i < count; i++ {
		down := at + time.Duration(i)*2*period
		evs = append(evs, LinkDown(down, a, b), LinkUp(down+period, a, b))
	}
	return evs
}

// NodeDown fails the named host: every link touching it goes dark.
func NodeDown(at time.Duration, node string) Event {
	return Event{At: at, Name: "node-down " + node,
		Apply: func(e *Engine) error { e.Network().SetNodeDown(node, true); return nil }}
}

// NodeUp recovers the named host.
func NodeUp(at time.Duration, node string) Event {
	return Event{At: at, Name: "node-up " + node,
		Apply: func(e *Engine) error { e.Network().SetNodeDown(node, false); return nil }}
}

// SetLoss steps both directions of a link's per-packet loss probability —
// the sustained-loss regime the transport duel scenarios run under.
func SetLoss(at time.Duration, a, b string, p float64) Event {
	return Event{At: at, Name: fmt.Sprintf("set-loss %s-%s p=%g", a, b, p),
		Apply: func(e *Engine) error {
			l, err := e.Link(a, b)
			if err != nil {
				return err
			}
			l.AB.SetLoss(p)
			l.BA.SetLoss(p)
			return nil
		}}
}

// FrameTrain measures delivering frames frames of size bytes over the
// directed channel a->b in the scenario's transport mode, recording the
// per-frame completion times in the Result under label. The duel
// scenarios' evidence-gathering primitive.
func FrameTrain(at time.Duration, label, a, b string, frames, size int) Event {
	return Event{At: at,
		Name: fmt.Sprintf("frame-train label=%s %s->%s frames=%d size=%d", label, a, b, frames, size),
		Apply: func(e *Engine) error {
			return e.MeasureFrameTrainNow(at, label, a, b, frames, size)
		}}
}

// TierFrameTrain is FrameTrain with the frame payload encoded at a viewer
// quality tier: the hint clamps to the scenario's MaxTier budget and the
// byte count scales by cost.TierBytes — the tier duels' evidence that a
// constrained viewer's degraded frames actually cost less on the wire.
func TierFrameTrain(at time.Duration, label, a, b string, frames, size int, hint cost.Tier) Event {
	return Event{At: at,
		Name: fmt.Sprintf("tier-frame-train label=%s %s->%s frames=%d size=%d hint=%s", label, a, b, frames, size, hint),
		Apply: func(e *Engine) error {
			return e.MeasureTierFrameTrainNow(at, label, a, b, frames, size, hint)
		}}
}

// Remeasure forces a full authoritative probing sweep — the operator's "the
// estimates look stale" button, and the probe-starved scenarios' recovery.
func Remeasure(at time.Duration) Event {
	return Event{At: at, Name: "remeasure",
		Apply: func(e *Engine) error { e.CM().MeasureAll(); return nil }}
}
