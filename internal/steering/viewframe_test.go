package steering

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"ricsa/internal/clock"
	"ricsa/internal/telemetry"
)

// loggedFrame is one frame record as the sink saw it, stamped with the
// virtual time it was recorded at.
type loggedFrame struct {
	rec telemetry.FrameRecord
	at  time.Time
}

// viewRig is one session on a virtual clock whose every frame record
// reaches the test (batch size 1), stamped with the virtual time of its
// publish.
type viewRig struct {
	t   *testing.T
	clk *clock.Virtual
	m   *SessionManager
	s   *ManagedSession
	t0  time.Time

	mu     sync.Mutex
	frames []loggedFrame
}

const viewTestPeriod = 100 * time.Millisecond

// newViewRig starts the session and returns once its first frame is
// published and its timer parked. A watching rig attaches a viewer after
// that first frame, so every later frame renders.
func newViewRig(t *testing.T, watching bool) *viewRig {
	t.Helper()
	r := &viewRig{t: t, clk: clock.NewVirtual(time.Unix(0, 0))}
	r.m = NewSessionManager(ManagerConfig{
		MaxSessions: 1, ReoptimizeEvery: 2, Seed: 42, Clock: r.clk,
		Telemetry: telemetry.NewCollector(telemetry.SinkFunc(func(batch []telemetry.FrameRecord) {
			r.mu.Lock()
			defer r.mu.Unlock()
			for _, rec := range batch {
				r.frames = append(r.frames, loggedFrame{rec: rec, at: r.clk.Now()})
			}
		}), 1),
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.m.Shutdown(ctx)
	})
	s, err := r.m.CreateTuned(smallRequest(), viewTestPeriod, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	r.s = s
	r.clk.AwaitArmed(1)
	r.t0 = r.clk.Now()
	if watching {
		t.Cleanup(s.Attach())
	}
	return r
}

// steer applies one steering key and fails the test on error.
func (r *viewRig) steer(key string, v float64) {
	r.t.Helper()
	if err := r.s.Steer(map[string]float64{key: v}); err != nil {
		r.t.Fatal(err)
	}
}

// log returns a copy of the frames recorded so far.
func (r *viewRig) log() []loggedFrame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]loggedFrame(nil), r.frames...)
}

// count reports how many recorded frames had the given cause.
func (r *viewRig) count(cause telemetry.FrameCause) int {
	n := 0
	for _, f := range r.log() {
		if f.rec.Cause == cause {
			n++
		}
	}
	return n
}

// nextTick is the virtual time the session's next tick is due: its first
// frame ran at t0 and took no virtual time, so one period after it.
func (r *viewRig) nextTick() time.Time { return r.t0.Add(r.s.period()) }

// TestViewSteerPublishesWithoutClockAdvance checks a zoom steer is shown
// by a view frame at once: a new frame seq with no clock advance, the
// simulation time unchanged, and a steer_view record with no queue wait.
func TestViewSteerPublishesWithoutClockAdvance(t *testing.T) {
	r := newViewRig(t, true)
	seq0 := r.s.Status()["frame_seq"].(uint64)
	simTime := r.s.sim.Time()

	r.steer("zoom", 0.5)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seq, png, err := r.s.waitFrame(ctx, seq0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != seq0+1 || len(png) == 0 {
		t.Fatalf("view frame seq %d (%d bytes), want seq %d with an image", seq, len(png), seq0+1)
	}
	if now := r.clk.Now(); !now.Equal(r.t0) {
		t.Fatalf("clock moved %v to show a view steer", now.Sub(r.t0))
	}
	if got := r.s.sim.Time(); got != simTime {
		t.Fatalf("simulation time %v -> %v: a view frame stepped the solver", simTime, got)
	}
	frames := r.log()
	last := frames[len(frames)-1].rec
	if last.Seq != seq || last.Cause != telemetry.CauseSteerView || !last.Rendered || last.QueueWaitNS != 0 {
		t.Fatalf("view frame record %+v, want seq %d, cause steer_view, rendered, no queue wait", last, seq)
	}
	if got := r.m.Telemetry().Snapshot().FramesSteerView; got != 1 {
		t.Fatalf("FramesSteerView = %d, want 1", got)
	}
}

// TestViewSteersRateLimited sends a burst of view steers inside one frame
// period: the first is shown at once, the rest by one deferred frame at
// the window's end (lastView + FramePeriod), before the next tick. A steer
// whose window ends after the next tick is left for that tick to show.
func TestViewSteersRateLimited(t *testing.T) {
	r := newViewRig(t, true)
	tick := r.nextTick()
	due := r.t0.Add(viewTestPeriod)
	if !due.Before(tick) {
		t.Fatalf("the test needs the next tick (%v) after one frame period", tick.Sub(r.t0))
	}

	r.steer("zoom", 0.5)
	waitUntil(t, "the immediate view frame", func() bool { return r.count(telemetry.CauseSteerView) == 1 })
	for i := 0; i < 5; i++ {
		r.steer("zoom", 0.6+0.1*float64(i))
	}
	// The loop re-arms its timer from the clock's reading when it takes the
	// burst's wake, so the clock must hold still until it has.
	waitUntil(t, "the loop to defer the burst", func() bool {
		when, ok := r.clk.NextDeadline()
		return ok && when.Equal(due)
	})
	r.clk.AdvanceTo(due.Add(-time.Nanosecond))
	if n := r.count(telemetry.CauseSteerView); n != 1 {
		t.Fatalf("%d view frames inside the first period, want 1", n)
	}
	r.clk.AdvanceTo(tick.Add(-time.Nanosecond))
	var views []time.Time
	for _, f := range r.log() {
		if f.rec.Cause == telemetry.CauseSteerView {
			views = append(views, f.at)
		}
	}
	if len(views) != 2 || !views[0].Equal(r.t0) || !views[1].Equal(due) {
		t.Fatalf("view frames at %v, want one at t0 and one at t0+%v", views, viewTestPeriod)
	}
	r.s.mu.Lock()
	shown := r.s.shownGen == r.s.viewGen
	r.s.mu.Unlock()
	if !shown {
		t.Fatal("the deferred frame did not show the burst's last steer")
	}

	// The tick keeps its own schedule. A steer once the window has passed
	// is shown at once; one whose window ends after the next tick is left
	// for that tick to show.
	r.clk.AdvanceTo(tick)
	if n := r.count(telemetry.CauseTick); n != 2 {
		t.Fatalf("%d ticks by the second tick's due time, want 2", n)
	}
	tick2 := tick.Add(r.s.period())
	open := due.Add(viewTestPeriod)
	if !open.Before(tick2) || open.Add(viewTestPeriod).Before(tick2) {
		t.Fatalf("the test needs the next tick (%v) within one frame period after the window reopens (%v)",
			tick2.Sub(r.t0), open.Sub(r.t0))
	}
	r.clk.AdvanceTo(open)
	r.steer("zoom", 2)
	waitUntil(t, "the second immediate view frame", func() bool { return r.count(telemetry.CauseSteerView) == 3 })
	r.steer("zoom", 3)
	r.clk.AdvanceTo(tick2)
	if n := r.count(telemetry.CauseTick); n != 3 {
		t.Fatalf("%d ticks by the third tick's due time, want 3", n)
	}
	if n := r.count(telemetry.CauseSteerView); n != 3 {
		t.Fatalf("%d view frames, want 3: the tick should have shown the last steer", n)
	}
}

// TestPhysicsSteerWaitsForTick checks a physics-only steer does not wake
// the producer: it takes effect at the next solver step, on the tick.
func TestPhysicsSteerWaitsForTick(t *testing.T) {
	r := newViewRig(t, true)
	produced := len(r.log())
	r.steer("left_pressure", 9)
	if len(r.s.kick) != 0 {
		t.Fatal("a physics steer woke the producer")
	}
	r.clk.AdvanceTo(r.nextTick().Add(-time.Nanosecond))
	if got := len(r.log()); got != produced {
		t.Fatalf("%d frames before the tick after a physics steer, want %d", got, produced)
	}
}

// TestViewSteerWithoutViewerProducesNothing checks an unwatched session
// gets no view frame, and that a later lazy render shows the steered view.
func TestViewSteerWithoutViewerProducesNothing(t *testing.T) {
	r := newViewRig(t, false)
	produced := len(r.log())
	r.steer("zoom", 0.25)
	if len(r.s.kick) != 0 {
		t.Fatal("a view steer with no viewer woke the producer")
	}
	r.clk.AdvanceTo(r.nextTick().Add(-time.Nanosecond))
	if got := len(r.log()); got != produced {
		t.Fatalf("%d frames with no viewer, want %d", got, produced)
	}

	r.s.mu.Lock()
	field := r.s.latest
	r.s.mu.Unlock()
	img, err := RenderDataset(field, r.s.Request(), r.s.Width, r.s.Height)
	if err != nil {
		t.Fatal(err)
	}
	want, err := img.PNG()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, got, err := r.s.waitFrame(ctx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the lazy render did not show the steered view")
	}
}

// TestIsovalueViewFrameReconsults checks an isovalue steer's view frame
// re-prices the session: the steer invalidates the cost model, and the view
// frame itself consults the CM under the new isovalue, with no clock
// advance. The isovalue sits below the data range, so the new cost model
// is genuinely new and misses the shared cache.
func TestIsovalueViewFrameReconsults(t *testing.T) {
	r := newViewRig(t, true)
	reopts := r.s.Reoptimizations()
	misses := r.m.CacheStats().Misses
	r.s.mu.Lock()
	gen := r.s.pipeGen
	r.s.mu.Unlock()

	r.steer("isovalue", 0.05)
	waitUntil(t, "the isovalue view frame", func() bool { return r.count(telemetry.CauseSteerView) == 1 })
	r.s.mu.Lock()
	gotGen, pipe := r.s.pipeGen, r.s.pipe
	r.s.mu.Unlock()
	if gotGen != gen+1 || pipe == nil {
		t.Fatalf("pipeGen %d -> %d (pipeline installed: %v), want one bump and a rebuilt model", gen, gotGen, pipe != nil)
	}
	if got := r.s.Reoptimizations(); got != reopts+1 {
		t.Fatalf("reoptimizations %d -> %d, want the view frame to consult once", reopts, got)
	}
	if r.m.CacheStats().Misses <= misses {
		t.Fatal("the new isovalue's cost model hit the cache")
	}
	if !r.clk.Now().Equal(r.t0) {
		t.Fatal("the clock moved")
	}
}

// TestViewSteerStormCapped steers the view every millisecond for ten
// frame periods of wall time: view frames start at most one per
// FramePeriod, and none of them steps the solver.
func TestViewSteerStormCapped(t *testing.T) {
	const period = 30 * time.Millisecond
	var mu sync.Mutex
	causes := map[telemetry.FrameCause]int{}
	m := NewSessionManager(ManagerConfig{
		MaxSessions: 1, ReoptimizeEvery: 2, Seed: 42,
		Telemetry: telemetry.NewCollector(telemetry.SinkFunc(func(batch []telemetry.FrameRecord) {
			mu.Lock()
			defer mu.Unlock()
			for _, rec := range batch {
				causes[rec.Cause]++
			}
		}), 1),
	})
	defer m.Shutdown(context.Background())
	s, err := m.CreateTuned(smallRequest(), period, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Attach()()

	start := time.Now()
	for i := 0; time.Since(start) < 10*period; i++ {
		if err := s.Steer(map[string]float64{"yaw": 0.4 + 0.001*float64(i)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Destroy(s.ID); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	mu.Lock()
	views, ticks := causes[telemetry.CauseSteerView], causes[telemetry.CauseTick]
	mu.Unlock()
	if limit := 1 + int(elapsed/period); views > limit {
		t.Fatalf("%d view frames in %v, want at most %d (one per %v)", views, elapsed, limit, period)
	}
	if views < 2 {
		t.Fatalf("%d view frames under a steer storm: steers are being dropped", views)
	}
	if cycles, want := s.sim.Cycle(), ticks*smallRequest().StepsPerFrame; cycles != want {
		t.Fatalf("solver ran %d cycles over %d ticks, want %d: view frames must not step", cycles, ticks, want)
	}
}
