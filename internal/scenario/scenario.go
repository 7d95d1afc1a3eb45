// Package scenario is the deterministic WAN scenario engine: it runs the
// repo's *live* stack — cm.Manager with its background Prober,
// steering.SessionManager with real per-session lifecycle goroutines, and
// the emulated netsim WAN they measure — entirely on a virtual clock, and
// executes a declarative script of fault/churn events against it (link
// degradation and flaps, node failure, cross-traffic bursts, session and
// viewer churn) while checking invariants and writing a deterministic
// event/metrics log. Running the same scenario twice produces byte-identical
// logs, so "the CM kept frame delay bounded while the WAN misbehaved" is a
// replayable regression test rather than a sleep-and-hope integration test.
//
// Determinism comes from three properties, each load-bearing:
//
//  1. every control loop (Prober ticks, frame pacing) runs on one
//     clock.Virtual whose rendezvous fires exactly one goroutine at a time;
//  2. the emulated network and every random process in it derive from the
//     scenario seed;
//  3. the engine applies script events and takes metric samples only at
//     quiescence, so no sample ever races a control loop.
//
// Anything logged must be derived from those (virtual timestamps, counters,
// deterministic floats) — never from wall time, map iteration order, or
// global process state such as absolute graph revisions.
package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"ricsa/internal/clock"
	"ricsa/internal/cm"
	"ricsa/internal/cost"
	"ricsa/internal/fcp"
	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
	"ricsa/internal/steering"
	"ricsa/internal/telemetry"
	"ricsa/internal/transport/fec"
)

// Scenario is a declarative script: a seeded live-stack configuration, a
// set of events at virtual timestamps, and a verdict function over the
// collected result.
type Scenario struct {
	Name        string
	Description string
	// Seed drives the emulated testbed (loss, jitter, cross traffic).
	Seed int64
	// Duration is the virtual length of the run.
	Duration time.Duration
	// CountExact marks a script whose Verify reconciles exact event counts
	// (admissions, evictions) that hold only if the run ends when the script
	// does: past the last scripted poll the polled viewers stall too, and
	// the service — correctly — evicts them as well. A soak multiplier
	// leaves such a scenario's Duration alone.
	CountExact bool
	// SampleEvery is the metrics sampling cadence (default 2s). Samples are
	// part of the deterministic log.
	SampleEvery time.Duration
	// FramePeriod is the base pacing of every session the script starts
	// (default 100ms); the installed mapping's predicted delay is charged
	// on top, exactly as in production.
	FramePeriod time.Duration
	// Width/Height size rendered frames (default 48x48 — scenarios measure
	// control behaviour, not pixels).
	Width, Height int
	// ProbeInterval is the background Prober cadence; 0 leaves the Prober
	// off (the probe-starved scenarios).
	ProbeInterval     time.Duration
	ProbeLinksPerTick int
	// ProbeBudget bounds each probe transfer in emulated time (default 2s)
	// so probing a dark link times out instead of hanging the Prober.
	ProbeBudget time.Duration
	// ReoptimizeEvery / AdaptTolerance / AdaptWindow tune sessions as in
	// steering.ManagerConfig.
	ReoptimizeEvery int
	AdaptTolerance  float64
	AdaptWindow     int
	// MaxSessions caps live sessions (default 64). The overload scenarios
	// raise it so the FrameBudget watermark, not the hard cap, is the
	// binding admission control.
	MaxSessions int
	// FrameBudget / FrameCost configure the admission watermark and
	// MaxViewerLag the slow-consumer eviction threshold, as in
	// steering.ManagerConfig (zero values disable them).
	FrameBudget  float64
	FrameCost    time.Duration
	MaxViewerLag int
	// ComputeWorkers sizes the run's private frame-compute pool (sim sweeps
	// and block extraction). <= 0 selects 1 — fully inline, the
	// conservative default. Pool workers are compute-only (they never wait
	// on the virtual clock), and pooled extraction is byte-identical to
	// inline, so the deterministic log is the same at any width; a
	// regression test pins that.
	ComputeWorkers int
	// TransportMode selects how frame delivery is priced and modelled
	// (DESIGN §13): NACK retransmission (the zero value), fountain-FEC, or
	// auto. It is threaded into the live manager's CM — so the optimizer
	// prices it — and governs which delivery model scripted FrameTrain
	// events measure.
	TransportMode cost.TransportMode
	// MaxTier is the deepest viewer quality tier the run's manager may
	// negotiate (DESIGN §14). The zero value pins every viewer to the full
	// frame — the historical behaviour — so a tier duel runs one script
	// under two budgets and diffs only in this knob.
	MaxTier cost.Tier
	// Events is the script, in any order; the engine sorts by At (ties keep
	// authoring order, and run before the sample at the same instant).
	Events []Event
	// Verify, when set, judges the collected Result (go test asserts it).
	Verify func(*Result) error
}

// Event is one scripted action. Name appears verbatim in the log, so
// constructors bake their parameters into it.
type Event struct {
	At    time.Duration
	Name  string
	Apply func(*Engine) error
}

// SampleRow is one session's metrics at one sample instant.
type SampleRow struct {
	At      time.Duration
	Alias   string
	Seq     uint64
	Renders int
	Viewers int
	Reopts  int
	Adapts  int
	// Predicted is the installed mapping's at-install delay; Estimated its
	// re-priced delay under the CM's current measured graph; True its delay
	// under the emulated network's ground-truth conditions. All -1 before
	// the first consultation; Estimated/True are +Inf for a placement the
	// graph can no longer route.
	Predicted, Estimated, True float64
	Path                       string
}

// Result is what a run produced.
type Result struct {
	Scenario string
	// Log is the deterministic event/metrics log: same scenario, same seed,
	// byte-identical bytes.
	Log []byte
	// Final per-session counters, keyed by alias (sessions destroyed by the
	// script keep their last observed values).
	Frames  map[string]uint64
	Renders map[string]int
	Reopts  map[string]int
	Adapts  map[string]int
	// Control-plane counters.
	Restamps    uint64
	Adaptations uint64
	ProbeEpoch  uint64
	CacheStats  pipeline.CacheStats
	// Telemetry is the service collector's final counter snapshot, taken
	// at quiescence before shutdown. The overload scenarios reconcile it
	// against the engine-side ground truth below.
	Telemetry telemetry.CounterSnapshot
	// Engine-observed overload ground truth: admission outcomes counted at
	// the TryStartSession/StartSession call sites, viewers the script
	// attached/closed, and evictions the script's polls observed.
	Admitted         int
	RejectedLimit    int
	RejectedOverload int
	ViewersTracked   int
	ViewersClosed    int
	EvictedObserved  int
	// TierDelivered counts, per quality tier, the scripted polls that
	// delivered a frame — the engine-side ground truth the tier telemetry
	// counters are reconciled against.
	TierDelivered [cost.NumTiers]uint64
	// FrameTrains holds each scripted FrameTrain measurement, keyed by the
	// event's label.
	FrameTrains map[string]TrainStats
	// Samples holds every SampleRow in order.
	Samples []SampleRow
	// Violations are engine-detected invariant breaches (non-monotone frame
	// sequences, and anything events reported). Empty on a healthy run.
	Violations []string
}

// TrainStats summarizes one scripted frame-delivery train: a fixed number
// of frames pushed over one ground-truth channel in the scenario's
// transport mode, each frame's completion time measured on the emulated
// network. This is the duel scenarios' evidence: the same seeded loss
// process, priced and delivered under NACK in one run and FEC in the
// sibling run.
type TrainStats struct {
	// Mode is the delivery model used ("nack" or "fec" — auto resolves to
	// one of the two against the CM's estimate before the train starts).
	Mode string
	// Tier is the viewer quality tier the train's frames were encoded at
	// ("full" unless a TierFrameTrain resolved deeper under the scenario's
	// MaxTier budget); the frame payload is scaled by cost.TierBytes.
	Tier string
	// Redundancy is the FEC provisioning used, derived from the CM's
	// per-edge loss/confidence estimate at train time (0 in NACK mode).
	Redundancy float64
	// Frames is the train length; Delivered how many frames completed
	// inside the per-frame budget. A reliable transport delivers them all
	// — fallbacks are counted, stalls are not tolerated.
	Frames, Delivered int
	// Decoded counts FEC frames completed by the coded burst alone;
	// Fallbacks counts frames whose loss exceeded the provisioned
	// redundancy and whose residue was delivered over the NACK path.
	Decoded, Fallbacks int
	// BlocksSent and RepairUsed aggregate the FEC wire accounting.
	BlocksSent, RepairUsed int
	// P50 and P99 are delivery-time percentiles in seconds over the train.
	P50, P99 float64
	// Delays holds every frame's delivery time in seconds, train order.
	Delays []float64
}

// Duration returns the virtual time of the last sample (the scenario end;
// the engine always samples at Scenario.Duration).
func (r *Result) Duration() time.Duration {
	if len(r.Samples) == 0 {
		return 0
	}
	return r.Samples[len(r.Samples)-1].At
}

// Engine is the run state passed to event Apply functions.
type Engine struct {
	sc    Scenario
	epoch time.Time
	clk   *clock.Virtual
	mgr   *steering.SessionManager

	waiters  int // control goroutines parked on the clock when quiescent
	log      bytes.Buffer
	aliases  []string
	sessions map[string]*steering.ManagedSession
	detach   map[string][]func()
	// viewers holds the script's tracked (evictable) viewers per alias.
	// They are event-driven data structures, not goroutines: a scripted
	// viewer consumes via Poll at scripted instants, so it never parks on
	// the clock and the deterministic schedule is unchanged.
	viewers map[string][]*steering.Viewer
	lastSeq map[string]uint64
	res     *Result
}

// CM exposes the shared control loop.
func (e *Engine) CM() *cm.Manager { return e.mgr.CM() }

// Network exposes the emulated WAN the script perturbs.
func (e *Engine) Network() *netsim.Network { return e.mgr.CM().Network() }

// Link returns the link between the named testbed sites.
func (e *Engine) Link(a, b string) (*netsim.Link, error) {
	if l := e.Network().FindLink(a, b); l != nil {
		return l, nil
	}
	return nil, fmt.Errorf("scenario: no link %s-%s", a, b)
}

// Session returns the aliased live session.
func (e *Engine) Session(alias string) (*steering.ManagedSession, error) {
	if s := e.sessions[alias]; s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("scenario: no session %q", alias)
}

// StartSession creates a live session under the scenario's pacing and
// registers it under alias. Its lifecycle goroutine becomes part of the
// deterministic schedule. A rejected admission is a structural failure;
// overload scripts use TryStartSession instead.
func (e *Engine) StartSession(alias string, req steering.Request) error {
	if _, dup := e.sessions[alias]; dup {
		return fmt.Errorf("scenario: duplicate session alias %q", alias)
	}
	s, err := e.mgr.CreateTuned(req, e.sc.FramePeriod, e.sc.Width, e.sc.Height)
	if err != nil {
		return err
	}
	e.res.Admitted++
	e.aliases = append(e.aliases, alias)
	e.sessions[alias] = s
	e.waiters++
	return nil
}

// TryStartSession is StartSession with admission rejections treated as an
// expected outcome: the outcome (admitted, or which typed rejection) is
// logged and counted in the Result, and only unexpected errors fail the
// run. This is how the overload scenarios drive the watermark.
func (e *Engine) TryStartSession(at time.Duration, alias string, req steering.Request) error {
	if _, dup := e.sessions[alias]; dup {
		return fmt.Errorf("scenario: duplicate session alias %q", alias)
	}
	s, err := e.mgr.CreateTuned(req, e.sc.FramePeriod, e.sc.Width, e.sc.Height)
	switch {
	case err == nil:
		e.res.Admitted++
		e.aliases = append(e.aliases, alias)
		e.sessions[alias] = s
		e.waiters++
		fmt.Fprintf(&e.log, "t=%s admit alias=%s ok\n", fmtD(at), alias)
	case errors.Is(err, steering.ErrOverloaded):
		e.res.RejectedOverload++
		fmt.Fprintf(&e.log, "t=%s admit alias=%s rejected=overload\n", fmtD(at), alias)
	case errors.Is(err, steering.ErrSessionLimit):
		e.res.RejectedLimit++
		fmt.Fprintf(&e.log, "t=%s admit alias=%s rejected=limit\n", fmtD(at), alias)
	default:
		return err
	}
	return nil
}

// StopSession destroys the aliased session (its final counters are kept in
// the Result).
func (e *Engine) StopSession(alias string) error {
	s, err := e.Session(alias)
	if err != nil {
		return err
	}
	e.recordFinal(alias, s)
	for _, d := range e.detach[alias] {
		d()
	}
	delete(e.detach, alias)
	for _, v := range e.viewers[alias] {
		if !v.Evicted() {
			v.Close()
			e.res.ViewersClosed++
		}
	}
	delete(e.viewers, alias)
	if err := e.mgr.Destroy(s.ID); err != nil {
		return err
	}
	delete(e.sessions, alias)
	e.waiters--
	return nil
}

// AttachViewers registers n web viewers on the aliased session (rendering
// switches from lazy to eager, as in production).
func (e *Engine) AttachViewers(alias string, n int) error {
	s, err := e.Session(alias)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		e.detach[alias] = append(e.detach[alias], s.Attach())
	}
	return nil
}

// TrackViewers attaches n tracked (evictable) viewers to the aliased
// session. Unlike AttachViewers' presence-only attach, these are subject
// to the slow-consumer policy: the script must keep polling them via
// PollViewers or the session evicts them at MaxViewerLag.
func (e *Engine) TrackViewers(alias string, n int) error {
	return e.TrackViewersTier(alias, n, cost.TierFull)
}

// TrackViewersTier attaches n tracked viewers hinting the given quality
// tier; the session clamps the hint to the scenario's MaxTier budget, so
// the same script negotiates different ladders under different budgets.
func (e *Engine) TrackViewersTier(alias string, n int, hint cost.Tier) error {
	s, err := e.Session(alias)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		e.viewers[alias] = append(e.viewers[alias], s.AttachViewerTier(hint))
	}
	e.res.ViewersTracked += n
	return nil
}

// PollViewersNow polls every tracked viewer of the given aliases in
// order, the scripted stand-in for a long-poll client consuming frames.
// It returns how many polls delivered a new frame and how many viewers
// were discovered evicted (and pruned); any other error is structural.
func (e *Engine) PollViewersNow(aliases []string) (delivered, evicted int, err error) {
	for _, alias := range aliases {
		vs := e.viewers[alias]
		alive := vs[:0]
		for _, v := range vs {
			seq, _, perr := v.Poll()
			switch {
			case errors.Is(perr, steering.ErrViewerEvicted):
				evicted++
				continue
			case perr != nil:
				return delivered, evicted, fmt.Errorf("poll %s: %w", alias, perr)
			case seq > 0:
				delivered++
				e.res.TierDelivered[v.Tier()]++
			}
			alive = append(alive, v)
		}
		e.viewers[alias] = alive
	}
	e.res.EvictedObserved += evicted
	return delivered, evicted, nil
}

// CloseViewersNow closes up to n tracked viewers of the aliased session
// (client-initiated detach, as opposed to eviction).
func (e *Engine) CloseViewersNow(alias string, n int) error {
	if _, err := e.Session(alias); err != nil {
		return err
	}
	vs := e.viewers[alias]
	for n > 0 && len(vs) > 0 {
		v := vs[len(vs)-1]
		vs = vs[:len(vs)-1]
		if !v.Evicted() {
			v.Close()
			e.res.ViewersClosed++
			n--
		}
	}
	e.viewers[alias] = vs
	return nil
}

// DetachViewers removes up to n viewers from the aliased session.
func (e *Engine) DetachViewers(alias string, n int) error {
	if _, err := e.Session(alias); err != nil {
		return err
	}
	ds := e.detach[alias]
	for i := 0; i < n && len(ds) > 0; i++ {
		ds[len(ds)-1]()
		ds = ds[:len(ds)-1]
	}
	e.detach[alias] = ds
	return nil
}

// trainBudget bounds one train frame's delivery in emulated time; only a
// dark channel can exhaust it.
const trainBudget = 60 * time.Second

// MeasureFrameTrainNow delivers frames frames of size bytes over the
// directed ground-truth channel a->b in the scenario's transport mode and
// records the per-frame completion times under label. In FEC mode the
// redundancy is provisioned from the CM's current loss/confidence
// estimate for that edge — exactly the quantity the optimizer prices — so
// a stale estimate under sudden loss growth exercises the counted
// fallback path. Auto resolves to the cheaper model against the same
// estimate before the train starts. Runs at quiescence and drives the
// netsim event loop directly, like Remeasure; the measured times are a
// deterministic function of the scenario seed and prior event history.
func (e *Engine) MeasureFrameTrainNow(at time.Duration, label, a, b string, frames, size int) error {
	return e.MeasureTierFrameTrainNow(at, label, a, b, frames, size, cost.TierFull)
}

// MeasureTierFrameTrainNow is MeasureFrameTrainNow with the frame payload
// encoded at a viewer quality tier: the hint is clamped to the scenario's
// MaxTier budget and the per-frame byte count scaled by cost.TierBytes —
// the same quantity the optimizer prices — so a tier duel measures what a
// constrained viewer's frames actually cost on the wire.
func (e *Engine) MeasureTierFrameTrainNow(at time.Duration, label, a, b string, frames, size int, hint cost.Tier) error {
	tier := hint.Clamp(e.sc.MaxTier)
	if scaled := int(cost.TierBytes(tier, float64(size))); scaled >= 1 {
		size = scaled
	} else {
		size = 1
	}
	if _, dup := e.res.FrameTrains[label]; dup {
		return fmt.Errorf("scenario: duplicate frame-train label %q", label)
	}
	ch := e.Network().Channel(a, b)
	if ch == nil {
		return fmt.Errorf("scenario: no channel %s->%s", a, b)
	}
	est := e.CM().Estimates()[a+"->"+b]
	mode := e.sc.TransportMode
	if mode == cost.TransportAuto {
		mode = cost.TransportNACK
		if cost.FECDeliverySeconds(float64(size), est.EPB, est.MinDelay.Seconds(), est.Loss, est.LossConf) <
			cost.NACKDeliverySeconds(float64(size), est.EPB, est.MinDelay.Seconds(), est.Loss) {
			mode = cost.TransportFEC
		}
	}

	ts := TrainStats{Mode: mode.String(), Tier: tier.String(), Frames: frames}
	if mode == cost.TransportFEC {
		ts.Redundancy = cost.FECRedundancy(est.Loss, est.LossConf)
	}
	for i := 0; i < frames; i++ {
		if mode == cost.TransportFEC {
			fs := fec.MeasureFrameWithin(ch, size, ts.Redundancy, trainBudget)
			ts.BlocksSent += fs.BlocksSent
			ts.RepairUsed += fs.RepairUsed
			if fs.Decoded {
				ts.Decoded++
			}
			if fs.FellBack {
				ts.Fallbacks++
			}
			if fs.Delivered {
				ts.Delivered++
			}
			ts.Delays = append(ts.Delays, fs.Elapsed.Seconds())
		} else {
			elapsed, ok := netsim.MeasureBulkWithin(ch, size, trainBudget)
			if ok {
				ts.Delivered++
			}
			ts.Delays = append(ts.Delays, elapsed.Seconds())
		}
	}
	sorted := append([]float64(nil), ts.Delays...)
	sort.Float64s(sorted)
	ts.P50 = percentile(sorted, 0.50)
	ts.P99 = percentile(sorted, 0.99)
	e.res.FrameTrains[label] = ts
	fmt.Fprintf(&e.log, "t=%s train label=%s mode=%s tier=%s r=%.3f frames=%d delivered=%d decoded=%d fallbacks=%d sent=%d repair=%d p50=%s p99=%s\n",
		fmtD(at), label, ts.Mode, ts.Tier, ts.Redundancy, ts.Frames, ts.Delivered,
		ts.Decoded, ts.Fallbacks, ts.BlocksSent, ts.RepairUsed, fmtF(ts.P50), fmtF(ts.P99))
	return nil
}

// percentile returns the q-quantile of an ascending-sorted sample by the
// nearest-rank method (q in (0, 1]).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Violate records an invariant breach detected by an event or check.
func (e *Engine) Violate(format string, args ...any) {
	e.res.Violations = append(e.res.Violations, fmt.Sprintf(format, args...))
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Duration <= 0 {
		sc.Duration = 30 * time.Second
	}
	if sc.SampleEvery <= 0 {
		sc.SampleEvery = 2 * time.Second
	}
	if sc.FramePeriod <= 0 {
		sc.FramePeriod = 100 * time.Millisecond
	}
	if sc.Width <= 0 {
		sc.Width = 48
	}
	if sc.Height <= 0 {
		sc.Height = 48
	}
	if sc.ProbeBudget <= 0 {
		sc.ProbeBudget = 2 * time.Second
	}
	return sc
}

// timelineItem interleaves script events (sample == nil semantics via ev)
// with periodic samples.
type timelineItem struct {
	at  time.Duration
	seq int // authoring order for stable ties; samples sort after events
	ev  *Event
}

// Run executes the scenario and returns its Result. Structural failures
// (an event erroring, an unknown alias) return an error; invariant breaches
// are collected in Result.Violations for Verify to judge.
func Run(sc Scenario) (*Result, error) {
	sc = sc.withDefaults()
	e := &Engine{
		sc:       sc,
		epoch:    time.Unix(0, 0).UTC(),
		sessions: make(map[string]*steering.ManagedSession),
		detach:   make(map[string][]func()),
		viewers:  make(map[string][]*steering.Viewer),
		lastSeq:  make(map[string]uint64),
		res: &Result{
			Scenario:    sc.Name,
			Frames:      make(map[string]uint64),
			Renders:     make(map[string]int),
			Reopts:      make(map[string]int),
			Adapts:      make(map[string]int),
			FrameTrains: make(map[string]TrainStats),
		},
	}
	e.clk = clock.NewVirtual(e.epoch)
	e.clk.SetWatchdog(2 * time.Minute)
	maxSessions := sc.MaxSessions
	if maxSessions <= 0 {
		maxSessions = 64
	}
	// The run owns a private compute pool so scenarios never contend with
	// each other's workers. Created before the manager: the deferred Close
	// then runs after Shutdown, when no producer can still be submitting.
	workers := sc.ComputeWorkers
	if workers <= 0 {
		workers = 1
	}
	pool := fcp.NewPool(workers)
	defer pool.Close()
	e.mgr = steering.NewSessionManager(steering.ManagerConfig{
		MaxSessions:       maxSessions,
		Seed:              sc.Seed,
		Clock:             e.clk,
		ProbeInterval:     sc.ProbeInterval,
		ProbeLinksPerTick: sc.ProbeLinksPerTick,
		ProbeBudget:       sc.ProbeBudget,
		ReoptimizeEvery:   sc.ReoptimizeEvery,
		AdaptTolerance:    sc.AdaptTolerance,
		AdaptWindow:       sc.AdaptWindow,
		FrameBudget:       sc.FrameBudget,
		FrameCost:         sc.FrameCost,
		MaxViewerLag:      sc.MaxViewerLag,
		ComputePool:       pool,
		TransportMode:     sc.TransportMode,
		MaxTier:           sc.MaxTier,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = e.mgr.Shutdown(ctx)
	}()
	if sc.ProbeInterval > 0 {
		e.waiters = 1 // the background Prober
	}
	e.clk.AwaitArmed(e.waiters)

	fmt.Fprintf(&e.log, "scenario=%s seed=%d duration=%s frame=%s probe=%s transport=%s tier=%s\n",
		sc.Name, sc.Seed, fmtD(sc.Duration), fmtD(sc.FramePeriod), fmtD(sc.ProbeInterval),
		sc.TransportMode, sc.MaxTier)

	// Merge script events with the sampling schedule.
	var items []timelineItem
	for i := range sc.Events {
		ev := &sc.Events[i]
		if ev.At < 0 || ev.At > sc.Duration {
			return nil, fmt.Errorf("scenario %s: event %q at %s outside [0, %s]",
				sc.Name, ev.Name, fmtD(ev.At), fmtD(sc.Duration))
		}
		items = append(items, timelineItem{at: ev.At, seq: i, ev: ev})
	}
	for at := sc.SampleEvery; at < sc.Duration; at += sc.SampleEvery {
		items = append(items, timelineItem{at: at, seq: len(sc.Events)})
	}
	items = append(items, timelineItem{at: sc.Duration, seq: len(sc.Events)})
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].at != items[j].at {
			return items[i].at < items[j].at
		}
		return items[i].seq < items[j].seq
	})

	for _, it := range items {
		e.clk.AdvanceTo(e.epoch.Add(it.at))
		if it.ev != nil {
			fmt.Fprintf(&e.log, "t=%s ev=%s\n", fmtD(it.at), it.ev.Name)
			if err := it.ev.Apply(e); err != nil {
				return nil, fmt.Errorf("scenario %s: event %q at %s: %w",
					sc.Name, it.ev.Name, fmtD(it.at), err)
			}
			// Population may have changed (session churn): rendezvous so the
			// next advance sees every control goroutine parked.
			e.clk.AwaitArmed(e.waiters)
		} else {
			e.sample(it.at)
		}
	}

	for _, alias := range e.aliases {
		if s := e.sessions[alias]; s != nil {
			e.recordFinal(alias, s)
		}
	}
	cmm := e.mgr.CM()
	e.res.Restamps = cmm.Restamps()
	e.res.Adaptations = cmm.Adaptations()
	e.res.ProbeEpoch = cmm.ProbeEpoch()
	e.res.CacheStats = cmm.CacheStats()
	// Snapshot the service counters at quiescence, before the deferred
	// Shutdown destroys the surviving sessions — so SessionsDestroyed
	// reconciles against the script's StopSession count.
	e.res.Telemetry = e.mgr.Telemetry().Snapshot()
	tel := e.res.Telemetry
	fmt.Fprintf(&e.log, "end restamps=%d adaptations=%d epoch=%d cache=%d/%d violations=%d\n",
		e.res.Restamps, e.res.Adaptations, e.res.ProbeEpoch,
		e.res.CacheStats.Hits, e.res.CacheStats.Misses, len(e.res.Violations))
	fmt.Fprintf(&e.log, "end telemetry admitted=%d rejected=%d/%d destroyed=%d viewers=%d/%d/%d frames=%d rendered=%d\n",
		tel.SessionsAdmitted, tel.SessionsRejectedLimit, tel.SessionsRejectedOverload,
		tel.SessionsDestroyed, tel.ViewersAttached, tel.ViewersDetached, tel.ViewersEvicted,
		tel.FramesProduced, tel.FramesRendered)
	for _, v := range e.res.Violations {
		fmt.Fprintf(&e.log, "violation %s\n", v)
	}
	e.res.Log = e.log.Bytes()
	return e.res, nil
}

// recordFinal captures a session's counters into the Result.
func (e *Engine) recordFinal(alias string, s *steering.ManagedSession) {
	st := s.Status()
	e.res.Frames[alias] = st["frame_seq"].(uint64)
	e.res.Renders[alias] = st["renders"].(int)
	e.res.Reopts[alias] = st["reoptimizations"].(int)
	e.res.Adapts[alias] = st["adaptations"].(int)
}

// sample logs one metrics row per live session (alias order) plus the
// control-plane counters, checking the engine-level invariants.
func (e *Engine) sample(at time.Duration) {
	cmm := e.mgr.CM()
	cs := cmm.CacheStats()
	tel := e.mgr.Telemetry().Snapshot()
	fmt.Fprintf(&e.log, "t=%s sample epoch=%d restamps=%d adaptations=%d cache=%d/%d sessions=%d admitted=%d rejected=%d/%d evicted=%d frames=%d\n",
		fmtD(at), cmm.ProbeEpoch(), cmm.Restamps(), cmm.Adaptations(),
		cs.Hits, cs.Misses, e.mgr.Len(),
		tel.SessionsAdmitted, tel.SessionsRejectedLimit, tel.SessionsRejectedOverload,
		tel.ViewersEvicted, tel.FramesProduced)
	for _, alias := range e.aliases {
		s := e.sessions[alias]
		if s == nil {
			continue
		}
		st := s.Status()
		row := SampleRow{
			At:      at,
			Alias:   alias,
			Seq:     st["frame_seq"].(uint64),
			Renders: st["renders"].(int),
			Viewers: st["viewers"].(int),
			Reopts:  st["reoptimizations"].(int),
			Adapts:  st["adaptations"].(int),
		}
		row.Predicted, row.Estimated, row.True = -1, -1, -1
		if pipe, src, placements, predicted, ok := s.Mapping(); ok {
			row.Predicted = predicted
			row.Estimated = e.slowest(placements, func(pl []string) (float64, error) {
				return cmm.PredictPlacement(pipe, src, pl)
			})
			tg := e.truthGraph()
			row.True = e.slowest(placements, func(pl []string) (float64, error) {
				return pipeline.EvaluatePlacement(tg, pipe, src, pl)
			})
		}
		if p, ok := st["vrt_path"].([]string); ok {
			row.Path = fmt.Sprintf("%v", p)
		}
		if last, seen := e.lastSeq[alias]; seen && row.Seq < last {
			e.Violate("t=%s %s frame seq regressed %d -> %d", fmtD(at), alias, last, row.Seq)
		}
		e.lastSeq[alias] = row.Seq
		e.res.Samples = append(e.res.Samples, row)
		fmt.Fprintf(&e.log, "t=%s %s seq=%d renders=%d viewers=%d reopts=%d adapts=%d pred=%s est=%s true=%s path=%s\n",
			fmtD(at), alias, row.Seq, row.Renders, row.Viewers, row.Reopts, row.Adapts,
			fmtF(row.Predicted), fmtF(row.Estimated), fmtF(row.True), row.Path)
	}
}

// slowest re-prices every branch placement and returns the governing
// (maximum) delay, +Inf when any branch no longer evaluates.
func (e *Engine) slowest(placements [][]string, price func([]string) (float64, error)) float64 {
	worst := 0.0
	for _, pl := range placements {
		d, err := price(pl)
		if err != nil {
			return math.Inf(1)
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// truthGraph prices the emulated network's *current* ground truth — each
// channel's effective (cross-traffic-scaled) bandwidth and configured
// delay — on the CM's node inventory. Dark channels get an epsilon
// bandwidth so placements over them price as effectively unreachable
// rather than dividing by zero.
func (e *Engine) truthGraph() *pipeline.Graph {
	g := e.mgr.Graph()
	tg := pipeline.NewGraph(g.Nodes...)
	for _, l := range e.Network().Links() {
		for _, ch := range []*netsim.Channel{l.AB, l.BA} {
			bw := ch.EffectiveBandwidth()
			if ch.Down() {
				bw = 1
			}
			tg.AddEdge(g.NodeIndex(ch.From.Name), g.NodeIndex(ch.To.Name),
				bw, ch.Config().Delay.Seconds())
		}
	}
	return tg
}

func fmtD(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// fmtF renders a delay deterministically, including the sentinel and
// unreachable cases.
func fmtF(v float64) string {
	switch {
	case v < 0:
		return "none"
	case math.IsInf(v, 1):
		return "inf"
	default:
		return fmt.Sprintf("%.4fs", v)
	}
}
