package steering

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"ricsa/internal/cm"
	"ricsa/internal/cost"
	"ricsa/internal/fcp"
	"ricsa/internal/grid"
	"ricsa/internal/pipeline"
	"ricsa/internal/simengine"
	"ricsa/internal/telemetry"
	"ricsa/internal/viz"
)

// ManagedSession is one live monitored simulation owned by a
// SessionManager: a wall-clock simulate→consult-CM→render→publish loop
// that any number of web viewers can attach to through webui.Hub.
type ManagedSession struct {
	ID  string
	mgr *SessionManager
	sim *simengine.Sim

	// FramePeriod is the base pacing of the loop — the installed mapping's
	// predicted delivery delay is charged on top per frame (see period).
	// Width/Height size rendered frames. Fixed at creation (CreateTuned).
	FramePeriod time.Duration
	Width       int
	Height      int

	mu      sync.Mutex
	req     Request
	seq     uint64 // frames produced (monotone, rendered or not)
	png     []byte // last rendered frame
	pngSeq  uint64 // the frame seq png corresponds to
	renders int    // RenderDataset invocations (lazy rendering skips idle frames)
	// tierPNG/tierSeq publish the latest encoded frame per reduced tier
	// (DESIGN §14); index TierFull is unused — the full frame stays in png.
	// A tier is encoded only while demanded, by a tracked viewer at that
	// tier or a delivery branch the optimizer degraded to it, so the slots
	// can lag the full frame; viewers fall back to the full frame then.
	tierPNG [cost.NumTiers][]byte
	tierSeq [cost.NumTiers]uint64
	// tierDemand counts tracked viewers per negotiated tier.
	tierDemand [cost.NumTiers]int
	// deltaKey retains the delta tier's newest keyframe and the frame seq
	// it was published at. Region patches are keyframe-relative, so the
	// retained key plus the latest patch reconstructs the current frame: a
	// delta viewer joining mid-stream is served the key first, with no
	// forced re-key.
	deltaKey    []byte
	deltaKeySeq uint64
	// latest is the newest unrendered dataset snapshot, kept so a viewer
	// arriving after idle frames can have the current frame rendered on
	// demand, under the current request. lazyTarget is the frame seq a
	// WaitFrame caller is currently rendering (0 = none): on-demand
	// rendering is single-flight, so a poll burst against an idle session
	// pays one render, not one per waiter.
	latest     *grid.ScalarField
	lazyTarget uint64
	notify     chan struct{}
	// kick wakes the lifecycle goroutine for a view frame (DESIGN §5). It
	// is buffered 1 and Steer sends without blocking, so a steer burst
	// coalesces into one wake and Steer never waits on the producer.
	kick chan struct{}
	// viewGen counts steers that moved the view (camera or isovalue);
	// shownGen is the viewGen the newest published frame was produced
	// under. A view frame is owed while they differ and a viewer watches.
	viewGen  uint64
	shownGen uint64
	viewers  int
	// tracked holds the Viewers subject to the slow-consumer eviction
	// policy (AttachViewer); presence-only Attach viewers are counted in
	// viewers but not tracked.
	tracked map[*Viewer]struct{}
	// util is the session's frame-budget utilization charge, fixed at
	// admission; Destroy/Shutdown credit it back to the manager.
	util float64
	// lateNS is how far past its scheduled cadence the next frame will
	// start (the previous frame overran its period). Written by nextDelay
	// and read by produce on the lifecycle goroutine only.
	lateNS int64
	// tree is the installed mapping: always a routing tree, with one branch
	// for a lone ClientNode.
	tree      *pipeline.VRTree
	optErr    error
	renderErr error
	reopts    int // successful CM consultations
	adapts    int // Adapter-forced consultations among them
	sinceOpt  int // frames since the last successful consultation
	pipe      *pipeline.Pipeline
	// pipeGen counts cost-model invalidations (isovalue steers). A CM
	// consultation snapshots it and discards its result if an
	// invalidation landed while the optimizer ran unlocked, so a stale
	// pipeline can never be installed over a fresher reset.
	pipeGen uint64
	adapter *cm.Adapter
	// places caches the installed tree's placement node names, one per
	// branch, so the per-frame monitor re-pricing does not rebuild them from
	// the tree every frame.
	places [][]string

	// scratch is the producer-owned frame data plane: mesh arena,
	// framebuffer, z-buffer, projection buffer, and PNG encode buffer, all
	// reused across frames. Only produce touches it (lazy renders in
	// WaitFrame run concurrently with the producer, so they allocate their
	// own buffers); published PNG bytes are always copied out of it.
	scratch viz.FrameScratch
	// tierEnc/tierBuf are the producer-owned per-tier encoders and encode
	// buffers (downscale scratch, delta reference canvas, PNG buffers),
	// reused across frames like scratch; published bytes are copied out.
	tierEnc [cost.NumTiers]viz.TierEncoder
	tierBuf [cost.NumTiers]bytes.Buffer
	// fieldScratch is the producer-owned dataset snapshot buffer. Ownership
	// transfers to `latest` when an idle frame stashes the snapshot for
	// on-demand rendering, and is reclaimed when a snapshot is superseded
	// with no lazy render in flight.
	fieldScratch *grid.ScalarField
	// queue is the session's lane into the shared frame-compute pool; the
	// sim's sweeps and the ROI extraction both submit through it, so its
	// accumulated caller stall is the frame's pool-wait time. roi is the
	// producer-owned dirty-block mesh cache behind RenderDatasetROI.
	queue *fcp.Queue
	roi   viz.BlockMeshCache

	stop chan struct{}
	done chan struct{}
}

// Ceilings on what a request may ask the simulator for. Requests arrive
// from the network (POST /api/sessions), so an unchecked grid is an
// allocation of the client's choosing and an unchecked step count a first
// frame that never returns — which would wedge Destroy/Shutdown in halt.
// They sit far above every grid the repo runs (the largest is 96×48×48).
const (
	maxGridAxis      = 1024
	maxGridCells     = 1 << 22
	maxStepsPerFrame = 1024
)

// checkGeometry rejects requests past the ceilings above. The per-axis
// checks short-circuit first, so the cell product cannot overflow.
func checkGeometry(req Request) error {
	if req.NX > maxGridAxis || req.NY > maxGridAxis || req.NZ > maxGridAxis ||
		max(req.NX, 1)*max(req.NY, 1)*max(req.NZ, 1) > maxGridCells {
		return fmt.Errorf("steering: grid %dx%dx%d exceeds %d cells per axis or %d cells in all",
			req.NX, req.NY, req.NZ, maxGridAxis, maxGridCells)
	}
	if req.StepsPerFrame > maxStepsPerFrame {
		return fmt.Errorf("steering: %d steps per frame exceeds %d", req.StepsPerFrame, maxStepsPerFrame)
	}
	return nil
}

// newManagedSession validates the request — its method, its endpoints,
// which must name hosts of the CM's measured graph, and its geometry — and
// instantiates the simulator; the caller registers the session and starts
// its goroutine.
func newManagedSession(m *SessionManager, req Request) (*ManagedSession, error) {
	switch req.Method {
	case "isosurface", "raycast", "streamline", "":
	default:
		return nil, fmt.Errorf("steering: unknown method %q", req.Method)
	}
	g := m.cm.Graph()
	if g.NodeIndex(req.SourceNode) < 0 {
		return nil, fmt.Errorf("steering: unknown source node %q (measured hosts: %v)",
			req.SourceNode, m.cm.NodeNames())
	}
	for _, dst := range req.Destinations() {
		if g.NodeIndex(dst) < 0 {
			return nil, fmt.Errorf("steering: unknown client node %q (measured hosts: %v)",
				dst, m.cm.NodeNames())
		}
	}
	if err := checkGeometry(req); err != nil {
		return nil, err
	}
	sim, err := newSimulator(req)
	if err != nil {
		return nil, err
	}
	if req.StepsPerFrame <= 0 {
		req.StepsPerFrame = 1
	}
	queue := m.pool.NewQueue()
	sim.SetQueue(queue)
	return &ManagedSession{
		mgr:         m,
		sim:         sim,
		req:         req,
		notify:      make(chan struct{}),
		kick:        make(chan struct{}, 1),
		tracked:     make(map[*Viewer]struct{}),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		FramePeriod: 200 * time.Millisecond,
		Width:       512,
		Height:      512,
		adapter:     m.cm.NewAdapter(),
		queue:       queue,
	}, nil
}

// run is the session's lifecycle goroutine. Pacing is re-derived per frame:
// the installed tree's predicted end-to-end delay is charged on top of the
// base frame period, so a session whose mapping delivers slowly publishes
// slowly — the paper's "the simulation does not proceed until the image
// from the last time step is delivered", with the emulated delivery time
// standing in for physical transfer.
//
// Between ticks a view steer (Steer's kick) is shown at once by a view
// frame: the same produce with zero solver steps, so the simulation does
// not advance and the pacing rule still holds. View frames are rate
// limited to one per FramePeriod; a steer inside that window is deferred
// by re-arming the loop's one timer to the window's end when that comes
// before the next tick, and a tick that comes first shows it instead.
func (s *ManagedSession) run() {
	defer close(s.done)
	clk := s.mgr.clk
	start := clk.Now()
	s.produce(telemetry.CauseTick)
	d := s.nextDelay(clk.Since(start))
	tick := clk.Now().Add(d)
	timer := clk.NewTimer(d)
	defer timer.Stop()
	// lastView is when the newest view frame began; deferred reports the
	// timer is armed for a view frame the rate limit held back, due
	// before tick.
	var lastView time.Time
	deferred := false
	for {
		select {
		case <-s.stop:
			return
		case <-timer.C():
			if now := clk.Now(); !deferred || !now.Before(tick) {
				deferred = false
				start = now
				s.produce(telemetry.CauseTick)
				d := s.nextDelay(clk.Since(start))
				tick = clk.Now().Add(d)
				timer.Reset(d)
				continue
			}
			deferred = false
			if s.viewOwed() {
				lastView = clk.Now()
				s.produceView(tick)
			}
			timer.Reset(max(0, tick.Sub(clk.Now())))
		case <-s.kick:
			now := clk.Now()
			due := lastView.Add(s.FramePeriod)
			switch {
			case deferred || !now.Before(tick) || !s.viewOwed():
				// Already scheduled, or the due tick (or one already
				// published) shows the steer.
			case !now.Before(due):
				lastView = now
				s.produceView(tick)
			case due.Before(tick):
				deferred = true
				timer.Reset(due.Sub(now))
			}
		}
	}
}

// viewOwed reports whether a view steer is not yet on screen while a
// viewer watches; with nobody watching, the next lazy render shows it.
func (s *ManagedSession) viewOwed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewers > 0 && s.viewGen != s.shownGen
}

// produceView runs a view frame, which only ever starts before the next
// tick, and charges any overrun past that tick to the tick's queue wait.
//
//ricsa:noalloc
func (s *ManagedSession) produceView(tick time.Time) {
	s.produce(telemetry.CauseSteerView)
	if late := s.mgr.clk.Since(tick); late > 0 {
		s.lateNS = int64(late)
	}
}

// nextDelay converts the effective frame period into the timer delay for
// the next frame, discounting the wall time produce itself consumed — the
// loop's cadence is the period, not period plus sim/render time. When
// produce overran the whole period the next frame starts immediately and
// the overrun is remembered as that frame's telemetry queue wait.
func (s *ManagedSession) nextDelay(elapsed time.Duration) time.Duration {
	d := s.period() - elapsed
	if d < 0 {
		s.lateNS = int64(-d)
		return 0
	}
	s.lateNS = 0
	return d
}

// period is the effective frame period: the base pacing plus the installed
// tree's predicted delivery delay — its slowest branch, since the loop must
// not advance before every viewer has the previous image.
func (s *ManagedSession) period() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.FramePeriod
	if s.tree != nil && s.tree.Delay > 0 {
		p += time.Duration(s.tree.Delay * float64(time.Second))
	}
	return p
}

// halt stops the lifecycle goroutine and waits for it.
func (s *ManagedSession) halt() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// frame is one produce call's working state, handed from stage to stage.
// It lives on the producer's stack; nothing in it outlives the call except
// the snapshot and the byte slices publish installs.
type frame struct {
	rec telemetry.FrameRecord
	// req (and the viewGen it carries), due and the mapping are what the
	// session held when the frame began, read in one critical section so
	// the control stage prices the same request the snapshot was taken
	// under.
	req     Request
	viewGen uint64
	due     bool
	pipe    *pipeline.Pipeline
	tree    *pipeline.VRTree
	field   *grid.ScalarField

	render   bool                // a viewer is attached: do pixel work
	wantTier [cost.NumTiers]bool // reduced tiers to encode beside the full frame
	img      *viz.Image          // backed by s.scratch; valid until the next render
	err      error               // render or full-frame encode failure

	png        []byte
	tierOut    [cost.NumTiers][]byte
	deltaKeyed bool
}

// produce runs one turn of the paper's loop: advance the simulation one
// frame, consult the CM when due, and — when anyone is watching — render,
// encode and publish the image. Rendering is lazy: with no attached viewer
// the render/encode stages, the hot path at -max-sessions scale, are
// skipped; the sequence number still advances and the dataset snapshot is
// kept so WaitFrame can render the current frame on demand. The stages cut
// where FrameRecord's SimNS/RenderNS/EncodeNS start and stop.
//
// A CauseSteerView frame is the same pass with zero solver steps: it
// re-snapshots the unadvanced state to show a view steer, consults the CM
// only when the steer invalidated the cost model, reports no queue wait and
// does not count toward the ReoptimizeEvery schedule.
//
//ricsa:noalloc
func (s *ManagedSession) produce(cause telemetry.FrameCause) {
	start := telemetry.StartStage()
	var f frame
	f.rec.Cause = cause
	if cause == telemetry.CauseTick {
		f.rec.QueueWaitNS = s.lateNS
	}
	s.advance(&f)
	s.control(&f)
	s.demand(&f)
	if f.render {
		s.render(&f)
		if f.err == nil {
			s.encode(&f)
		}
	}
	s.publish(&f, start)
}

// advance is the simulate stage: StepsPerFrame solver cycles (none for a
// view frame), then the monitored variable's snapshot into the producer's
// buffer.
//
//ricsa:noalloc
func (s *ManagedSession) advance(f *frame) {
	tick := f.rec.Cause == telemetry.CauseTick
	s.mu.Lock()
	f.req = s.req
	f.viewGen = s.viewGen
	f.due = s.pipe == nil || tick && s.sinceOpt >= s.mgr.cfg.ReoptimizeEvery
	f.pipe, f.tree = s.pipe, s.tree
	// Take the producer's snapshot buffer (nil when the previous frame's
	// snapshot is stashed in latest and may still be read by a lazy render).
	f.field = s.fieldScratch
	s.fieldScratch = nil
	s.mu.Unlock()

	simStart := telemetry.StartStage()
	for i := 0; tick && i < f.req.StepsPerFrame; i++ {
		s.sim.Step()
	}
	if f.req.Variable == "pressure" {
		f.field = s.sim.PressureInto(f.field)
	} else {
		f.field = s.sim.DensityInto(f.field)
	}
	f.rec.SimNS = simStart.ElapsedNS()
}

// control is the monitor/adapt stage: consult the CM on schedule, or early
// when the Adapter reports the installed mapping has drifted. A view frame
// re-prices nothing — the network did not move since the tick — unless its
// steer reset the cost model.
//
//ricsa:noalloc
func (s *ManagedSession) control(f *frame) {
	if !f.due && f.rec.Cause == telemetry.CauseTick && f.pipe != nil && f.tree != nil && s.monitor(f.pipe, f.tree) {
		f.due = true
	}
	if f.due {
		s.consultCM(f.field, f.req)
	}
}

// demand decides what this frame owes its audience: whether to render at
// all, and which reduced tiers to encode — tracked viewers' negotiated
// tiers plus every tier the installed tree's branches were degraded to.
// The full frame is always encoded when rendering at all.
//
//ricsa:noalloc
func (s *ManagedSession) demand(f *frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.render = s.viewers > 0
	for t := 1; t < cost.NumTiers; t++ {
		f.wantTier[t] = s.tierDemand[t] > 0
	}
	if s.tree != nil {
		for i := range s.tree.Branches {
			if bt := s.tree.Branches[i].Tier; bt != cost.TierFull && int(bt) < cost.NumTiers {
				f.wantTier[bt] = true
			}
		}
	}
}

// render is the extract+rasterize stage, over the producer's scratch and
// dirty-block cache.
//
//ricsa:noalloc
func (s *ManagedSession) render(f *frame) {
	renderStart := telemetry.StartStage()
	f.img, f.err = RenderDatasetROI(&s.scratch, &s.roi, s.queue, f.field, f.req, s.Width, s.Height)
	f.rec.RenderNS = renderStart.ElapsedNS()
	f.rec.BlocksReused, f.rec.BlocksExtracted = s.roi.TakeStats()
}

// encode turns the rendered image into the bytes viewers receive: the full
// PNG, then one extra encode per distinct demanded reduced tier. Encoders
// and buffers are producer-owned and reused; the bytes are copied out,
// because published frames must be immutable — only the encode buffer is
// pooled, never the slice viewers hold. A tier that fails to encode is
// simply not published this frame and its viewers fall back to the full
// frame.
//
//ricsa:noalloc
func (s *ManagedSession) encode(f *frame) {
	encodeStart := telemetry.StartStage()
	s.scratch.Enc.Reset()
	if f.err = f.img.EncodePNG(&s.scratch.Enc); f.err == nil {
		f.png = append([]byte(nil), s.scratch.Enc.Bytes()...)
		for t := cost.Tier(1); int(t) < cost.NumTiers; t++ {
			if !f.wantTier[t] {
				continue
			}
			buf := &s.tierBuf[t]
			var terr error
			switch t {
			case cost.TierHalf:
				terr = s.tierEnc[t].EncodeDownscaled(f.img, 2, buf)
			case cost.TierQuarter:
				terr = s.tierEnc[t].EncodeDownscaled(f.img, 4, buf)
			case cost.TierDelta:
				var kind viz.DeltaKind
				kind, terr = s.tierEnc[t].EncodeDelta(f.img, false, buf)
				f.deltaKeyed = terr == nil && kind == viz.DeltaKey
			}
			if terr == nil {
				f.tierOut[t] = append([]byte(nil), buf.Bytes()...)
			}
		}
	}
	f.rec.EncodeNS = encodeStart.ElapsedNS()
}

// publish installs the frame, applies the slow-consumer policy, wakes the
// waiters and records the frame's telemetry. An idle frame advances the
// sequence and stashes the snapshot for on-demand rendering; a failed
// render publishes nothing.
//
//ricsa:noalloc
func (s *ManagedSession) publish(f *frame, start telemetry.Stopwatch) {
	s.mu.Lock()
	if f.rec.Cause == telemetry.CauseTick {
		s.sinceOpt++
	}
	s.renderErr = f.err
	switch {
	case !f.render:
		// If this supersedes a stashed snapshot no lazy render holds,
		// recycle its buffer.
		s.seq++
		s.shownGen = f.viewGen
		if s.latest != nil && s.lazyTarget == 0 {
			s.fieldScratch = s.latest
		}
		s.latest = f.field
	case f.err == nil:
		s.seq++
		s.shownGen = f.viewGen
		s.png = f.png
		s.pngSeq = s.seq
		s.renders++
		s.mgr.tel.TierEncodes[cost.TierFull].Add(1)
		for t := 1; t < cost.NumTiers; t++ {
			if f.tierOut[t] != nil {
				s.tierPNG[t] = f.tierOut[t]
				s.tierSeq[t] = s.seq
				s.mgr.tel.TierEncodes[t].Add(1)
			}
		}
		if f.deltaKeyed {
			s.deltaKey = f.tierOut[cost.TierDelta]
			s.deltaKeySeq = s.seq
		}
		s.latest = nil
		// The render consumed the snapshot synchronously; reclaim it.
		s.fieldScratch = f.field
		f.rec.Rendered = true
	default:
		// Render failed: the snapshot is unpublished, so reclaim it.
		s.fieldScratch = f.field
		s.mu.Unlock()
		return
	}
	s.broadcastLocked()
	f.rec.Session = s.ID
	f.rec.Seq = s.seq
	s.fillDeliveryLocked(&f.rec)
	s.evictSlowLocked()
	s.mu.Unlock()

	f.rec.ProduceNS = start.ElapsedNS()
	// The queue accumulated the producer's stall behind other sessions'
	// pool batches across this frame's sim sweeps and extraction.
	f.rec.PoolWaitNS = s.queue.TakeWait()
	s.mgr.tel.RecordFrame(&f.rec)
}

// broadcastLocked wakes every goroutine parked on the session's notify
// channel (frame waiters, and waiters queued behind a lazy render's
// single-flight claim) and arms a fresh channel for the next event.
func (s *ManagedSession) broadcastLocked() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// fillDeliveryLocked copies the installed tree's per-branch predicted
// delivery delays into the frame record (the slowest overflow branch
// lands in the last slot when the tree fans out past MaxBranches).
func (s *ManagedSession) fillDeliveryLocked(rec *telemetry.FrameRecord) {
	if s.tree == nil {
		return
	}
	for i := range s.tree.Branches {
		ns := int64(s.tree.Branches[i].Delay * float64(time.Second))
		if i < telemetry.MaxBranches {
			rec.Delivery[i] = ns
			rec.Branches = i + 1
		} else if ns > rec.Delivery[telemetry.MaxBranches-1] {
			rec.Delivery[telemetry.MaxBranches-1] = ns
		}
	}
}

// evictSlowLocked applies the slow-consumer policy at publish time: any
// tracked viewer more than MaxViewerLag frames behind the sequence just
// published is evicted — its Wait/Poll return ErrViewerEvicted and its
// fan-out slot frees — instead of the session buffering for it without
// bound. Parked waiters are woken by the publish's notify broadcast.
func (s *ManagedSession) evictSlowLocked() {
	maxLag := s.mgr.cfg.MaxViewerLag
	if maxLag <= 0 || len(s.tracked) == 0 {
		return
	}
	for v := range s.tracked {
		if s.seq-v.delivered > uint64(maxLag) {
			v.evicted = true
			delete(s.tracked, v)
			s.viewers--
			s.tierDemand[v.tier]--
			s.mgr.tel.ViewersEvicted.Add(1)
		}
	}
}
