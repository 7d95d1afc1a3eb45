package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ricsa/internal/fcp"
	"ricsa/internal/steering"
	"ricsa/internal/webui"
)

// steer-loop is the paper's loop as the scientist sees it, paced as in
// production: one default session (sod, density, isosurface, 64x32x32,
// 4 steps a frame, 512x512, GaTech -> ORNL) at a 100 ms frame period.
// Connection 1 is a full-tier viewer long-polling in a closed loop and
// decoding every frame; connection 2 is the scientist's hand, posting
// steers that toggle the zoom between 1 and 0.25. A steer cannot be
// detected by sequence number (a frame whose produce read the request
// before the steer can be published after the POST returns) nor by "bytes
// differ" (the simulation changes every frame), so every frame is
// classified by its count of lit pixels, which the zoom changes about
// 16-fold.
//
// The steers are a closed loop with think time, which is what one
// scientist steering one session is: the next steer is due a think time
// after the frame that showed the previous one. The loop's cadence is
// frame period plus predicted delivery delay (about 247 ms here), and a
// steer waits for the next produce to start, so most of steer-to-pixel is
// phase wait, uniform over one cadence. Drawn at random, that phase makes
// the median of 50 probes wander by a tenth from run to run — sampling
// noise of the benchmark, not of the program. So the run plans its probes
// instead: n of them, the think time of each 50 ms plus its own n-th of
// one cadence, the n-ths visited in a scattered order and shifted by a
// seeded offset. Every run then covers the phases evenly and its
// percentiles are steady.
const (
	steerFramePeriodMS = 100
	// probeThink is the least time between seeing a steer's effect and
	// steering again; the probe's share of one cadence is added to it.
	probeThink = 50 * time.Millisecond
	// probeCycle is how many cadences one probe takes on average: the frame
	// that resolves it arrives one or two cadences after the frame it
	// followed, half the time each, and a tenth is slack. It sizes the
	// probe plan to the window.
	probeCycle = 1.6
	// zoomSeparation is the least ratio between the two states' lit-pixel
	// counts the classifier accepts.
	zoomSeparation = 4
	frameEdge      = 512
)

type steerRig struct {
	st      *stack
	viewer  *conn
	steerer *conn
	id      string
	since   uint64
}

func (r *steerRig) close() error {
	r.viewer.close()
	r.steerer.close()
	return r.st.close()
}

// setupSteerLoop is what a user waits for between starting the service and
// seeing a picture: manager build with its measurement sweep, listen,
// session create, first frame.
func setupSteerLoop(cfg runConfig) (*steerRig, error) {
	// A one-slot pool: the session computes inline on its producer. With a
	// pool as wide as the machine, a paced session — a third of one core —
	// is light enough for the OS to keep every thread of the process on one
	// CPU for the life of the process, about every other time on the 2-vCPU
	// VM this was sized on; the pool's worker then takes turns with the
	// producer, produce takes 70 ms instead of 45, and the median
	// steer-to-pixel is one of two numbers a tenth apart, by the toss of a
	// coin per run. Inline is the slower of the two made certain. The pool
	// is measured where it is busy, on session-saturate.
	st, err := startStack(steering.ManagerConfig{ComputePool: fcp.NewPool(1)}, cfg.traced)
	if err != nil {
		return nil, err
	}
	r := &steerRig{st: st, viewer: newConn(st.base), steerer: newConn(st.base)}
	if r.id, err = r.steerer.createSession(webui.CreateRequest{FramePeriodMS: steerFramePeriodMS}); err == nil {
		var f frame
		var ok bool
		if f, ok, err = r.viewer.fetchFrame(r.id, 0, ""); err == nil && !ok {
			err = fmt.Errorf("first frame: poll timed out")
		}
		r.since = f.seq
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

type seenFrame struct {
	seq           uint64
	recv, decoded time.Time
	bytes, lit    int
}

type resolution struct {
	recv, decoded time.Time
	seq           uint64
}

type probe struct {
	wantHigh          bool
	due, sent, posted time.Time
	resolved          chan resolution
	res               resolution
	ok                bool
}

// steerRun is the state the two load goroutines share. frames, fetches
// and viewErrs belong to the viewer goroutine, probes to the prober, until
// each has exited.
type steerRun struct {
	rig       *steerRig
	threshold int
	// cadence is the loop's frame-to-frame time and anchor the arrival of
	// the newest frame, both as calibrate saw them.
	cadence time.Duration
	anchor  time.Time
	stop    atomic.Bool

	mu      sync.Mutex
	pending *probe

	frames   []seenFrame
	fetches  int
	viewErrs []string
	probes   []*probe
	postErrs []string
}

func (r *steerRun) steer(zoom float64) error {
	payload := []byte(`{"zoom":` + strconv.FormatFloat(zoom, 'g', -1, 64) + `}`)
	rep, err := r.rig.steerer.do(http.MethodPost, "/sessions/"+r.rig.id+"/api/steer", payload)
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("steer: status %d", rep.status)
	}
	return nil
}

// nextLit fetches the next frame and returns its lit-pixel count.
func (r *steerRun) nextLit() (int, error) {
	f, ok, err := r.rig.viewer.fetchFrame(r.rig.id, r.rig.since, "")
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("frame poll timed out")
	}
	r.rig.since = f.seq
	lit, _, _, err := litPixels(f.body)
	return lit, err
}

// calibrate learns the classifier in warm-up: the lit-pixel counts of the
// two zoom states and the threshold between them (their geometric mean).
// It leaves the session at zoom 1 with its caches warm, and measures the
// loop's cadence as the viewer sees it (the median gap between the settled
// frames) and the arrival time of the last of them.
func (r *steerRun) calibrate() error {
	high, err := r.nextLit()
	if err != nil {
		return err
	}
	if err := r.steer(0.25); err != nil {
		return err
	}
	low := high
	for i := 0; i < 40 && low*zoomSeparation > high; i++ {
		if low, err = r.nextLit(); err != nil {
			return err
		}
	}
	if low < 1 {
		low = 1
	}
	if low*zoomSeparation > high {
		return fmt.Errorf("zoom states not separable: %d vs %d lit pixels", high, low)
	}
	r.threshold = int(math.Sqrt(float64(high) * float64(low)))
	if err := r.steer(1); err != nil {
		return err
	}
	var gaps []float64
	for i := 0; i < 60 && len(gaps) < 8; i++ {
		lit, err := r.nextLit()
		if err != nil {
			return err
		}
		now := time.Now()
		if lit > r.threshold {
			if !r.anchor.IsZero() {
				gaps = append(gaps, float64(now.Sub(r.anchor)))
			}
			r.anchor = now
		}
	}
	if len(gaps) < 8 {
		return fmt.Errorf("session did not return to zoom 1 in warm-up")
	}
	r.cadence = time.Duration(median(gaps))
	return nil
}

func (r *steerRun) viewLoop(done chan<- struct{}) {
	defer close(done)
	since := r.rig.since
	for !r.stop.Load() {
		f, ok, err := r.rig.viewer.fetchFrame(r.rig.id, since, "")
		recv := time.Now()
		r.fetches++
		if err != nil {
			r.viewErrs = append(r.viewErrs, err.Error())
			continue
		}
		if !ok {
			continue
		}
		lit, w, h, err := litPixels(f.body)
		decoded := time.Now()
		switch {
		case err != nil:
			r.viewErrs = append(r.viewErrs, "undecodable frame: "+err.Error())
			continue
		case w != frameEdge || h != frameEdge || f.tier != "full":
			r.viewErrs = append(r.viewErrs, fmt.Sprintf("frame %d is %dx%d tier %q", f.seq, w, h, f.tier))
		case f.seq <= since:
			r.viewErrs = append(r.viewErrs, fmt.Sprintf("frame seq %d not after %d", f.seq, since))
		case lit*2 > r.threshold && lit < r.threshold*2:
			r.viewErrs = append(r.viewErrs, fmt.Sprintf("frame %d: %d lit pixels is too close to the threshold %d", f.seq, lit, r.threshold))
		}
		since = f.seq
		r.frames = append(r.frames, seenFrame{seq: f.seq, recv: recv, decoded: decoded, bytes: len(f.body), lit: lit})
		high := lit > r.threshold
		r.mu.Lock()
		if p := r.pending; p != nil && p.wantHigh == high {
			r.pending = nil
			p.resolved <- resolution{recv: recv, decoded: decoded, seq: f.seq}
		}
		r.mu.Unlock()
	}
}

// probeLoop sends n probes. Probe i is due probeThink plus the
// (order(i)+shift)/n share of a cadence after the frame that resolved probe
// i-1, and is timed from that due time. order visits the n shares in
// steps of about 0.618n, so that probes close in time are far apart in
// phase and a drift during the run does not line up with the phase.
func (r *steerRun) probeLoop(n int, shift float64, done chan<- struct{}) {
	defer close(done)
	stride := scatterStride(n)
	high := true
	anchor := r.anchor
	for i := 0; i < n; i++ {
		share := (float64(i*stride%n) + shift) / float64(n)
		due := anchor.Add(probeThink + time.Duration(share*float64(r.cadence)))
		for due.Before(time.Now()) {
			due = due.Add(r.cadence)
		}
		time.Sleep(time.Until(due))
		high = !high
		zoom := 0.25
		if high {
			zoom = 1
		}
		// resolved is buffered so the viewer never blocks on a probe the
		// prober has given up on.
		p := &probe{wantHigh: high, due: due, resolved: make(chan resolution, 1)}
		r.probes = append(r.probes, p)
		r.mu.Lock()
		r.pending = p
		r.mu.Unlock()
		p.sent = time.Now()
		err := r.steer(zoom)
		p.posted = time.Now()
		if err != nil {
			r.postErrs = append(r.postErrs, err.Error())
			r.mu.Lock()
			r.pending = nil
			r.mu.Unlock()
			high = !high
			anchor = p.posted
			continue
		}
		timeout := time.NewTimer(5 * time.Second)
		select {
		case p.res = <-p.resolved:
			p.ok = true
			anchor = p.res.recv
		case <-timeout.C:
			r.mu.Lock()
			r.pending = nil
			r.mu.Unlock()
			anchor = time.Now()
		}
		timeout.Stop()
	}
}

// scatterStride returns the step nearest 0.618n that shares no factor with
// n, so that i*stride mod n visits every value below n once.
func scatterStride(n int) int {
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	stride := max(1, int(0.6180339887498949*float64(n)))
	for gcd(stride, n) != 1 {
		stride++
	}
	return stride
}

func runSteerLoop(cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{layer: make(map[string]float64)}
	rig, err := repeatSetup(cfg, out, setupSteerLoop)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	run := &steerRun{rig: rig}
	if err := run.calibrate(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	before, err := rig.steerer.scrape()
	if err != nil {
		return nil, err
	}
	procBefore := readProc()
	start := time.Now()
	end := start.Add(cfg.window)
	shift := rand.New(rand.NewSource(cfg.seed)).Float64()
	viewDone, probeDone := make(chan struct{}), make(chan struct{})
	go run.viewLoop(viewDone)
	probes := max(1, int(cfg.window.Seconds()/(probeCycle*run.cadence.Seconds())))
	go run.probeLoop(probes, shift, probeDone)
	heapPeak := waitWindow(end, cfg.traced)
	<-probeDone
	run.stop.Store(true)
	<-viewDone
	procAfter := readProc()
	after, err := rig.steerer.scrape()
	if err != nil {
		return nil, err
	}

	out.attempted = run.fetches + len(run.probes)
	for _, e := range run.viewErrs {
		out.violate("viewer: %s", e)
	}
	for _, e := range run.postErrs {
		out.violate("steer: %s", e)
	}
	var postUS, lateMS []float64
	for i, p := range run.probes {
		lateMS = append(lateMS, ms(p.sent.Sub(p.due)))
		postUS = append(postUS, us(p.posted.Sub(p.sent)))
		if !p.ok {
			out.violate("probe %d never reached the viewer", i)
			continue
		}
		out.latencyMS = append(out.latencyMS, ms(p.res.recv.Sub(p.due)))
	}
	// The rate is taken between the first and the last arrival inside the
	// window, so it does not snap to a whole number of frames per window.
	var inWindow []seenFrame
	bytes := 0.0
	for _, f := range run.frames {
		if !f.recv.Before(start) && !f.recv.After(end) {
			inWindow = append(inWindow, f)
			bytes += float64(f.bytes)
		}
	}
	if n := len(inWindow); n >= 2 {
		out.throughput = float64(n-1) / inWindow[n-1].recv.Sub(inWindow[0].recv).Seconds()
	}

	// Reconcile the server's counters with what the client saw.
	if got := counterDelta(before, after, "ricsa_tier_encodes_full_total"); got < float64(len(run.frames)) {
		out.violate("server encoded %g full frames, viewer received %d", got, len(run.frames))
	}
	checkLive(out, after, 1)

	if cfg.traced {
		recs := rig.st.sink.since(start)
		frameLayer(out.layer, recs, before, after)
		procLayer(out.layer, procBefore, procAfter, float64(len(recs)), heapPeak)
		out.layer["webui.bytes_per_frame"] = ratio(bytes, float64(len(inWindow)))
		out.layer["webui.steer_post_p50_us"] = median(postUS)
		out.layer["gen.late_p99_ms"] = quantile(sortedCopy(lateMS), 0.99)
		out.layer["webui.deliver_ms"] = traceSteerLoop(tr, out, run, recs)
	}
	return out, nil
}

// traceSteerLoop writes one trace per steer probe — steer.post,
// loop.phase_wait, steering.produce with its children, webui.deliver,
// client.decode — joining the client's frame to the sink's record on the
// frame sequence. It returns the median deliver time over every frame the
// viewer received.
func traceSteerLoop(tr *tracer, out *outcome, run *steerRun, recs []sunkFrame) float64 {
	bySeq := make(map[uint64]sunkFrame, len(recs))
	for _, r := range recs {
		bySeq[r.Seq] = r
	}
	var deliver []float64
	for _, f := range run.frames {
		if r, ok := bySeq[f.seq]; ok {
			deliver = append(deliver, ms(f.recv.Sub(r.arrival)))
		}
	}
	joined, resolved := 0, 0
	for i, p := range run.probes {
		if !p.ok {
			continue
		}
		resolved++
		r, ok := bySeq[p.res.seq]
		if !ok {
			continue
		}
		joined++
		trace := "probe-" + strconv.Itoa(i)
		root := tr.add(trace, 0, "steer.to_pixel", p.due, p.res.recv, map[string]string{"seq": strconv.FormatUint(p.res.seq, 10)})
		tr.add(trace, root, "steer.post", p.sent, p.posted, nil)
		produceStart := r.arrival.Add(-time.Duration(r.ProduceNS))
		waitFrom := p.posted
		if produceStart.Before(waitFrom) {
			// The steer was applied before its reply reached the client.
			waitFrom = produceStart
		}
		tr.add(trace, root, "loop.phase_wait", waitFrom, produceStart, nil)
		traceFrame(tr, trace, root, r)
		tr.add(trace, root, "webui.deliver", r.arrival, p.res.recv, nil)
		tr.add(trace, root, "client.decode", p.res.recv, p.res.decoded, nil)
	}
	if float64(joined) < 0.95*float64(resolved) {
		out.violate("only %d of %d resolved probes joined a sink record on frame seq", joined, resolved)
	}
	return median(deliver)
}
