package steering

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ricsa/internal/clock"
	"ricsa/internal/cm"
	"ricsa/internal/cost"
	"ricsa/internal/fcp"
	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
	"ricsa/internal/telemetry"
)

// This file is the multi-session deployment service: SessionManager owns N
// concurrent *live* sessions — each a real simulation advancing in wall
// time with its own lifecycle goroutine — as wall-clock clients of one
// shared cm.Manager control loop: one measured network graph kept fresh by
// the background Prober, one memoized optimizer. Sessions re-consult the
// CM as conditions change; identical (graph, pipeline, endpoints) instances
// across sessions and across time are answered from the cache instead of
// re-running the dynamic program, and each session's frame pacing charges
// its installed mapping's predicted delay — the paper's semantics that the
// loop does not advance until the previous image is delivered.
//
// The session itself is split along the paper's loop: session_loop.go is
// the frame loop, session_control.go the monitor/consult/steer side,
// viewer.go the delivery side.

// Manager errors.
var (
	// ErrSessionLimit is returned by Create when the manager is at its
	// -max-sessions capacity.
	ErrSessionLimit = errors.New("steering: session limit reached")
	// ErrNoSession is returned for operations on unknown or destroyed ids.
	ErrNoSession = errors.New("steering: no such session")
	// ErrShuttingDown is returned by Create after Shutdown began.
	ErrShuttingDown = errors.New("steering: manager is shutting down")
	// ErrOverloaded is returned by Create when admitting the session would
	// push the service past its frame-budget watermark even though slots
	// remain below -max-sessions. The web layer maps it to HTTP 503.
	ErrOverloaded = errors.New("steering: service overloaded")
	// ErrViewerEvicted is returned by a tracked Viewer's Wait/Poll after
	// the slow-consumer policy evicted it for falling more than
	// MaxViewerLag frames behind the live sequence.
	ErrViewerEvicted = errors.New("steering: viewer evicted (too far behind frame stream)")
)

// ManagerConfig tunes a SessionManager.
type ManagerConfig struct {
	// MaxSessions bounds concurrently live sessions (<= 0 selects 8).
	MaxSessions int
	// CacheCapacity bounds the shared optimizer cache
	// (<= 0 selects pipeline.DefaultCacheCapacity).
	CacheCapacity int
	// ReoptimizeEvery is the number of frames between a session's
	// consultations of the CM optimizer (<= 0 selects 8). Consultations
	// whose inputs are unchanged hit the shared cache.
	ReoptimizeEvery int
	// Seed drives the emulated testbed network the CM measures.
	Seed int64
	// ProbeInterval is the wall-clock cadence of the CM's background
	// Prober (<= 0 disables it; tests drive ProbeTick explicitly).
	ProbeInterval time.Duration
	// ProbeLinksPerTick is how many directed edges one prober tick
	// re-probes (<= 0 selects the cm default).
	ProbeLinksPerTick int
	// ProbeTolerance is the relative estimate drift that re-stamps the
	// graph (<= 0 selects the cm default).
	ProbeTolerance float64
	// AdaptTolerance and AdaptWindow parameterize session Adapters: a
	// frame whose re-predicted delay exceeds the installed VRT's by more
	// than the tolerance fraction counts as deviating, and AdaptWindow
	// consecutive deviations force a re-optimization (<= 0 select the cm
	// defaults).
	AdaptTolerance float64
	AdaptWindow    int
	// ProbeBudget bounds each probe transfer in virtual time (<= 0 selects
	// the cm default); scenario runs with dark links tighten it.
	ProbeBudget time.Duration
	// FrameBudget is the admission-control watermark: every admitted
	// session charges FrameCost/FramePeriod utilization units (the
	// fraction of one core its frame production nominally occupies), and
	// Create rejects with ErrOverloaded once the sum would exceed
	// FrameBudget. The charge is fixed at admission from configuration, so
	// the decision is deterministic and independent of probe state.
	// <= 0 disables the watermark (the hard MaxSessions cap still holds).
	FrameBudget float64
	// FrameCost is the nominal production cost of one frame used by the
	// FrameBudget watermark (<= 0 disables the watermark's charge).
	FrameCost time.Duration
	// MaxViewerLag is the slow-consumer eviction threshold: a tracked
	// Viewer (AttachViewer) more than MaxViewerLag frames behind the live
	// sequence is evicted at the next publish instead of the session
	// buffering for it without bound. <= 0 disables eviction. Presence-only
	// Attach viewers are exempt.
	MaxViewerLag int
	// Telemetry receives per-frame records and the service counters. nil
	// creates a counters-only collector (no sink), so the counters are
	// always live.
	Telemetry *telemetry.Collector
	// Clock paces every control loop of the service — the CM's background
	// Prober and each session's frame loop. nil selects the wall clock;
	// the scenario engine injects a clock.Virtual to run the whole live
	// stack deterministically.
	Clock clock.Clock
	// ComputePool is the shared frame-compute pool every session's sim
	// sweeps and block extraction run over, each through its own queue so
	// pool scheduling stays fair across sessions. nil selects the process
	// default pool (fcp.Default).
	ComputePool *fcp.Pool
	// TransportMode selects how the optimizer prices frame delivery over
	// lossy edges (DESIGN §13): the NACK retransmission path (the zero
	// value), fountain-FEC, or auto (cheaper of the two per edge). It is
	// stamped onto every published graph snapshot, so changing it reprices
	// the whole DP without re-measuring.
	TransportMode cost.TransportMode
	// MaxTier is the deepest rung of the viewer quality ladder (DESIGN §14)
	// the optimizer may degrade a delivery branch to, and the cap viewer
	// tier hints are clamped against. The zero value (TierFull) keeps the
	// historical uniform full-resolution behaviour.
	MaxTier cost.Tier
}

// SessionManager owns the live sessions of one RICSA service instance. The
// central-management state they share — the measured graph of the emulated
// six-site testbed, the per-edge estimates, and the memoized optimizer —
// lives in one cm.Manager. It is safe for concurrent use by HTTP handlers.
type SessionManager struct {
	cfg ManagerConfig
	cm  *cm.Manager
	clk clock.Clock

	// optFn is the CM consultation entry point, split out as a field so
	// tests can inject optimizer failures; it defaults to the shared
	// cm.Manager's memoized tree optimizer.
	optFn func(p *pipeline.Pipeline, srcName string, dstNames []string, maxTier cost.Tier) (*pipeline.VRTree, error)

	tel  *telemetry.Collector
	pool *fcp.Pool

	mu       sync.Mutex
	sessions map[string]*ManagedSession
	nextID   uint64
	closed   bool
	// loadFrac is the admitted sessions' summed frame-budget utilization,
	// maintained by Create/Destroy/Shutdown for the admission watermark.
	loadFrac float64
}

// managerProbeSizes is the probe sweep the live service uses: two sizes
// keep a full six-site sweep fast while still separating bandwidth from
// fixed delay.
func managerProbeSizes() []int { return []int{256 << 10, 1 << 20} }

// NewSessionManager builds a manager: it constructs the emulated testbed,
// hands it to a new Central Manager (which actively measures every channel
// — the Section 4.3 probes), and starts the background Prober when a
// ProbeInterval is configured.
func NewSessionManager(cfg ManagerConfig) *SessionManager {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 8
	}
	if cfg.ReoptimizeEvery <= 0 {
		cfg.ReoptimizeEvery = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall()
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewCollector(nil, 0)
	}
	pool := cfg.ComputePool
	if pool == nil {
		pool = fcp.Default()
	}
	m := &SessionManager{
		cfg:      cfg,
		clk:      cfg.Clock,
		tel:      cfg.Telemetry,
		pool:     pool,
		sessions: make(map[string]*ManagedSession),
	}
	m.cm = cm.New(managerTestbed(cfg.Seed), cm.Config{
		ProbeSizes:         managerProbeSizes(),
		ProbeInterval:      cfg.ProbeInterval,
		ProbeLinksPerTick:  cfg.ProbeLinksPerTick,
		Tolerance:          cfg.ProbeTolerance,
		DeviationTolerance: cfg.AdaptTolerance,
		DeviationWindow:    cfg.AdaptWindow,
		CacheCapacity:      cfg.CacheCapacity,
		ProbeBudget:        cfg.ProbeBudget,
		Clock:              cfg.Clock,
		Transport:          cfg.TransportMode,
	})
	m.optFn = m.cm.OptimizeMultiTiered
	m.cm.Start()
	return m
}

// managerTestbed builds the emulated six-site network the live service's
// CM measures: lossless and mildly cross-trafficked, so probing is cheap
// and deterministic per seed.
func managerTestbed(seed int64) *netsim.Network {
	tb := netsim.DefaultTestbed()
	tb.Loss = 0
	tb.CrossMean = 0.9
	return netsim.Testbed(seed, tb)
}

// CM exposes the shared control loop (status for the web control plane,
// the emulated network for tests that perturb link conditions).
func (m *SessionManager) CM() *cm.Manager { return m.cm }

// Remeasure simulates a network-condition change: the CM adopts a fresh
// testbed epoch and runs a gated full sweep. Estimates carry over by edge,
// so a remeasure that finds the same conditions keeps the graph's Rev —
// sessions' next consultations still hit the cache — while genuine drift
// re-stamps the graph and forces exactly one DP re-run per distinct
// instance.
func (m *SessionManager) Remeasure(seed int64) {
	// The adopted network is always the same six-site topology, so
	// AdoptNetwork cannot fail here.
	_ = m.cm.AdoptNetwork(managerTestbed(seed))
}

// Graph returns the CM's current measured graph (shared, read-only).
func (m *SessionManager) Graph() *pipeline.Graph { return m.cm.Graph() }

// CacheStats reports the shared optimizer cache counters.
func (m *SessionManager) CacheStats() pipeline.CacheStats { return m.cm.CacheStats() }

// Telemetry exposes the service's collector — counters for the web
// layer's /metrics exposition and the scenario engine's ground-truth
// reconciliation.
func (m *SessionManager) Telemetry() *telemetry.Collector { return m.tel }

// LoadFraction reports the admitted sessions' summed frame-budget
// utilization — the quantity the admission watermark compares against
// FrameBudget.
func (m *SessionManager) LoadFraction() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.loadFrac
}

// FrameBudget reports the configured admission watermark (0 = disabled).
func (m *SessionManager) FrameBudget() float64 { return m.cfg.FrameBudget }

// Create starts a new live session for the request and returns it. The
// session's lifecycle goroutine runs until Destroy or Shutdown.
func (m *SessionManager) Create(req Request) (*ManagedSession, error) {
	return m.CreateTuned(req, 0, 0, 0)
}

// CreateTuned is Create with explicit pacing and frame geometry applied
// before the lifecycle goroutine starts (zero values keep the defaults:
// 200ms frames at 512x512).
func (m *SessionManager) CreateTuned(req Request, framePeriod time.Duration, width, height int) (*ManagedSession, error) {
	s, err := newManagedSession(m, req)
	if err != nil {
		return nil, err
	}
	if framePeriod > 0 {
		s.FramePeriod = framePeriod
	}
	if width > 0 {
		s.Width = width
	}
	if height > 0 {
		s.Height = height
	}
	// The session's watermark charge: the fraction of one core its frame
	// production nominally occupies, fixed here at admission so the
	// decision never depends on later probe or load state.
	var util float64
	if m.cfg.FrameBudget > 0 && m.cfg.FrameCost > 0 {
		util = m.cfg.FrameCost.Seconds() / s.FramePeriod.Seconds()
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.tel.SessionsRejectedLimit.Add(1)
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d live)", ErrSessionLimit, m.cfg.MaxSessions)
	}
	if util > 0 && m.loadFrac+util > m.cfg.FrameBudget+1e-9 {
		m.tel.SessionsRejectedOverload.Add(1)
		load := m.loadFrac
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: load %.3f + %.3f exceeds frame budget %.3f",
			ErrOverloaded, load, util, m.cfg.FrameBudget)
	}
	m.loadFrac += util
	s.util = util
	m.tel.SessionsAdmitted.Add(1)
	m.nextID++
	s.ID = fmt.Sprintf("s%d", m.nextID)
	m.sessions[s.ID] = s
	m.mu.Unlock()
	go s.run()
	return s, nil
}

// Get returns the live session with the given id.
func (m *SessionManager) Get(id string) (*ManagedSession, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// List returns the live sessions ordered by id.
func (m *SessionManager) List() []*ManagedSession {
	m.mu.Lock()
	out := make([]*ManagedSession, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len reports the number of live sessions.
func (m *SessionManager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Destroy stops the session's lifecycle goroutine, waits for it to exit,
// and frees its slot.
func (m *SessionManager) Destroy(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	if ok {
		m.loadFrac -= s.util
		if m.loadFrac < 0 {
			m.loadFrac = 0
		}
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	s.halt()
	m.tel.SessionsDestroyed.Add(1)
	return nil
}

// Shutdown gracefully stops every session and the background Prober,
// refusing new Creates. It returns when all lifecycle goroutines have
// exited or ctx ends.
func (m *SessionManager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	victims := make([]*ManagedSession, 0, len(m.sessions))
	for id, s := range m.sessions {
		victims = append(victims, s)
		delete(m.sessions, id)
	}
	m.loadFrac = 0
	m.mu.Unlock()
	m.tel.SessionsDestroyed.Add(uint64(len(victims)))

	m.cm.Stop()

	done := make(chan struct{})
	go func() {
		for _, s := range victims {
			s.halt()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
