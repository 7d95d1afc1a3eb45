package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/steering"
	"ricsa/internal/webui"
)

// session-saturate keeps both cores busy: six sessions at a 1 ms frame
// period — three sod/isosurface, one bowshock/isosurface, one sod/raycast,
// one sod/streamline — each kept rendering by an in-process Attach (viewer
// presence needs no thread). The first sod session also holds a half, a
// quarter and a delta viewer, so every tier is encoded each frame.
// Connection 1 long-polls that session, which keeps the HTTP publish path
// in the picture. With the cores saturated, any CPU saved per frame — sim,
// extract, raster, raycast, streamline, PNG, tier encode, pool scheduling,
// telemetry — shows as frames per second.
//
// The isosurface sessions come first: their frame intervals are the
// latency samples (see frameClock).
var saturateSessions = []webui.CreateRequest{
	{Simulator: "sod", Method: "isosurface", FramePeriodMS: 1},
	{Simulator: "sod", Method: "isosurface", FramePeriodMS: 1},
	{Simulator: "sod", Method: "isosurface", FramePeriodMS: 1},
	{Simulator: "bowshock", Method: "isosurface", FramePeriodMS: 1},
	{Simulator: "sod", Method: "raycast", FramePeriodMS: 1},
	{Simulator: "sod", Method: "streamline", FramePeriodMS: 1},
}

// isoSessions is how many of saturateSessions, from the first, render an
// isosurface.
const isoSessions = 4

// The second and third sessions are the same request doing the same work
// (the first also encodes the reduced tiers and serves the long-poll), so
// the ratio of their frame rates measures the pool's fairness.
var twinSessions = [2]int{1, 2}

type saturateRig struct {
	st       *stack
	viewer   *conn
	ctl      *conn
	sessions []*steering.ManagedSession
	held     []func()
	since    uint64
}

func (r *saturateRig) close() error {
	for _, release := range r.held {
		release()
	}
	r.viewer.close()
	r.ctl.close()
	return r.st.close()
}

// holdTiers attaches one held viewer per reduced tier, so the session
// encodes every tier each frame.
func holdTiers(s *steering.ManagedSession) []func() {
	var held []func()
	for _, t := range []cost.Tier{cost.TierHalf, cost.TierQuarter, cost.TierDelta} {
		held = append(held, s.AttachViewerTier(t).Close)
	}
	return held
}

func setupSaturate(cfg runConfig) (*saturateRig, error) {
	st, err := startStack(steering.ManagerConfig{MaxSessions: len(saturateSessions), MaxTier: cost.TierDelta}, cfg.traced)
	if err != nil {
		return nil, err
	}
	r := &saturateRig{st: st, viewer: newConn(st.base), ctl: newConn(st.base)}
	err = func() error {
		for _, req := range saturateSessions {
			id, err := r.ctl.createSession(req)
			if err != nil {
				return err
			}
			s, ok := st.mgr.Get(id)
			if !ok {
				return fmt.Errorf("session %s vanished after create", id)
			}
			r.sessions = append(r.sessions, s)
			r.held = append(r.held, s.Attach())
		}
		r.held = append(r.held, holdTiers(r.sessions[0])...)
		for i, s := range r.sessions {
			f, ok, err := r.viewer.fetchFrame(s.ID, 0, "")
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("first frame of %s: poll timed out", s.ID)
			}
			if i == 0 {
				r.since = f.seq
			}
		}
		return nil
	}()
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// saturateView is the long-polling viewer's record; it belongs to the
// viewer goroutine until that has exited.
type saturateView struct {
	stop    atomic.Bool
	fetches int
	recv    []time.Time
	seqs    []uint64
	bytes   float64
	errs    []string
	// kept holds a copy of every 16th body, decoded after the window so
	// that the check costs the saturated cores nothing while they are timed.
	kept [][]byte
}

func (v *saturateView) loop(r *saturateRig, done chan<- struct{}) {
	defer close(done)
	id, since := r.sessions[0].ID, r.since
	for !v.stop.Load() {
		f, ok, err := r.viewer.fetchFrame(id, since, "")
		now := time.Now()
		v.fetches++
		if err != nil {
			v.errs = append(v.errs, err.Error())
			continue
		}
		if !ok {
			continue
		}
		if w, h, isPNG := pngSize(f.body); !isPNG || w != frameEdge || h != frameEdge || f.tier != "full" || f.seq <= since {
			v.errs = append(v.errs, fmt.Sprintf("frame %d after %d: png=%v %dx%d tier %q", f.seq, since, isPNG, w, h, f.tier))
		}
		since = f.seq
		v.recv = append(v.recv, now)
		v.seqs = append(v.seqs, f.seq)
		v.bytes += float64(len(f.body))
		if len(v.recv)%16 == 1 {
			v.kept = append(v.kept, append([]byte(nil), f.body...))
		}
	}
}

// frameClock is the second load goroutine. What a viewer of a loaded server
// perceives is the time between the frames of its session, so a latency
// sample is one such interval — taken over every frame of the four
// isosurface sessions, which do the same kind of work as steer-loop's
// session. The raycast and streamline sessions are load, counted by the
// throughput: their frame time differs by kind, and pooling them would make
// the percentiles depend on the mix of frames, which a faster raycaster
// changes. One session's share of two saturated cores wanders by a twentieth
// between runs; the four together do not. The clock reads each session's
// public render count once a millisecond, which needs no connection.
type frameClock struct {
	stop       atomic.Bool
	intervalMS []float64
}

func (c *frameClock) loop(sessions []*steering.ManagedSession, done chan<- struct{}) {
	defer close(done)
	type seen struct {
		renders int
		at      time.Time
	}
	last := make([]seen, len(sessions))
	for k, s := range sessions {
		last[k].renders = s.Renders()
	}
	for !c.stop.Load() {
		time.Sleep(time.Millisecond)
		now := time.Now()
		for k, s := range sessions {
			n := s.Renders()
			if n == last[k].renders {
				continue
			}
			if !last[k].at.IsZero() {
				// More than one frame since the last reading (the clock was
				// kept off the cores for a whole frame) shares the time.
				frames := n - last[k].renders
				for i := 0; i < frames; i++ {
					c.intervalMS = append(c.intervalMS, ms(now.Sub(last[k].at))/float64(frames))
				}
			}
			last[k] = seen{n, now}
		}
	}
}

func runSaturate(cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{layer: make(map[string]float64)}
	rig, err := repeatSetup(cfg, out, setupSaturate)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	time.Sleep(cfg.warmup())

	view, clock := &saturateView{}, &frameClock{}
	viewDone, clockDone := make(chan struct{}), make(chan struct{})
	before, err := rig.ctl.scrape()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	procBefore := readProc()
	twinA, twinB := rig.sessions[twinSessions[0]], rig.sessions[twinSessions[1]]
	rendersA, rendersB := twinA.Renders(), twinB.Renders()
	go view.loop(rig, viewDone)
	go clock.loop(rig.sessions[:isoSessions], clockDone)
	heapPeak := waitWindow(start.Add(cfg.window), cfg.traced)
	after, err := rig.ctl.scrape()
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	procAfter := readProc()
	rendersA, rendersB = twinA.Renders()-rendersA, twinB.Renders()-rendersB
	clock.stop.Store(true)
	<-clockDone
	view.stop.Store(true)
	<-viewDone

	rendered := counterDelta(before, after, "ricsa_frames_rendered_total")
	out.throughput = rendered / elapsed.Seconds()
	out.attempted = view.fetches
	for _, e := range view.errs {
		out.violate("viewer: %s", e)
	}
	out.latencyMS = clock.intervalMS
	for _, body := range view.kept {
		if _, w, h, err := litPixels(body); err != nil || w != frameEdge || h != frameEdge {
			out.violate("viewer: kept frame does not decode to %dx%d: %v", frameEdge, frameEdge, err)
		}
	}
	if rendered < float64(len(view.recv)) {
		out.violate("server rendered %g frames, one viewer received %d", rendered, len(view.recv))
	}
	checkLive(out, after, float64(len(saturateSessions)))

	if cfg.traced {
		recs := rig.st.sink.since(start)
		frameLayer(out.layer, recs, before, after)
		procLayer(out.layer, procBefore, procAfter, rendered, heapPeak)
		out.layer["fcp.fairness_min_over_max"] = ratio(float64(min(rendersA, rendersB)), float64(max(rendersA, rendersB)))
		out.layer["webui.bytes_per_frame"] = ratio(view.bytes, float64(len(view.recv)))
		arrival := make(map[uint64]time.Time)
		for _, r := range recs {
			traceFrame(tr, r.Session+"/"+fmt.Sprint(r.Seq), 0, r)
			if r.Session == rig.sessions[0].ID {
				arrival[r.Seq] = r.arrival
			}
		}
		var deliver []float64
		for i, seq := range view.seqs {
			if at, ok := arrival[seq]; ok {
				deliver = append(deliver, ms(view.recv[i].Sub(at)))
				tr.add(rig.sessions[0].ID+"/"+fmt.Sprint(seq), 0, "webui.deliver", at, view.recv[i], nil)
			}
		}
		out.layer["webui.deliver_ms"] = median(deliver)
	}
	return out, nil
}
