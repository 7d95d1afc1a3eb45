// Package cm is the Central Manager of the paper's Section 2 architecture,
// extracted into one reusable control loop: measure the network, optimize
// the pipeline mapping (the Eq. 9-10 dynamic program, memoized), deploy the
// resulting VRT, monitor realized frame delay against the VRT's prediction,
// and adapt when conditions drift. Both of the repo's session models are
// clients of this engine — emulated steering.Session/Deployment drive it on
// the netsim virtual clock, live steering.SessionManager sessions on wall
// time — so the measure/optimize/adapt logic exists exactly once.
//
// Measurement is continuous and incremental. A Manager keeps one EWMA
// estimate per directed edge, fed by the Section 4.3 EPB probes: a full
// sweep (MeasureAll) is authoritative and adopts raw values, while the
// background Prober re-probes a small round-robin subset of links per tick
// and nudges estimates by an EWMA step scaled by the probe's fit confidence.
// Either way, the published pipeline.Graph snapshot is only replaced — and
// its Rev only re-stamped — when an estimate moves past the configured
// tolerance, so an unchanged network keeps its fingerprint and every
// optimizer consultation keeps hitting the shared cache.
package cm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ricsa/internal/clock"
	"ricsa/internal/cost"
	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
)

// Node-inventory defaults applied to every host (previously hard-coded in
// the steering measurement layer): intra-cluster scatter bandwidth and the
// fixed parallel-invocation overhead of Section 5.3.1.
const (
	DefaultScatterBW        = 80 * netsim.MB
	DefaultParallelOverhead = 0.8
)

// Config tunes a Manager. The zero value selects workable defaults for
// every knob; ProbeInterval <= 0 leaves the background Prober off (virtual-
// clock clients call ProbeTick themselves).
type Config struct {
	// ProbeSizes is the test-message sweep per probe (nil selects
	// cost.DefaultProbeSizes) and ProbeRepeats the per-size averaging.
	ProbeSizes   []int
	ProbeRepeats int
	// ProbeInterval is the cadence of the background Prober started by
	// Start, measured on Clock. <= 0 disables it.
	ProbeInterval time.Duration
	// ProbeLinksPerTick is how many directed edges one ProbeTick re-probes,
	// round-robin over the edge set (<= 0 selects 2).
	ProbeLinksPerTick int
	// Tolerance is the relative drift an EWMA estimate must show against
	// the published graph before the edge is patched and the graph
	// re-stamped (<= 0 selects 0.05). Below it, the network is considered
	// unchanged and cached mappings stay valid.
	Tolerance float64
	// DelayFloor is the minimum absolute drift (seconds) an edge's
	// fixed-delay estimate must show before it counts: intercept
	// estimates are noisy in relative terms on short paths, and a
	// sub-millisecond wobble on a 5ms edge is irrelevant to frame delays
	// (<= 0 selects 2ms).
	DelayFloor float64
	// EWMAAlpha is the base smoothing step for incremental probe updates,
	// scaled per probe by its fit confidence (<= 0 selects 0.25 — small
	// enough that steady cross-traffic wobble stays inside the tolerance,
	// large enough that a collapsed link crosses it on its first
	// re-probe).
	EWMAAlpha float64
	// DeviationTolerance and DeviationWindow parameterize Adapters: a frame
	// whose observed delay exceeds prediction by more than the tolerance
	// fraction counts as deviating, and DeviationWindow consecutive
	// deviations trigger re-optimization (<= 0 select 0.5 and 2).
	DeviationTolerance float64
	DeviationWindow    int
	// CacheCapacity bounds the optimizer cache (<= 0 selects the pipeline
	// default).
	CacheCapacity int
	// ProbeBudget bounds each probe transfer in *virtual* time: a transfer
	// that has not completed within it (the link is dark or collapsed)
	// aborts the sweep and the edge's estimates adopt the collapse the
	// timeout implies. <= 0 selects 60s — generous enough that no healthy
	// testbed probe ever hits it, so existing runs are unchanged; scenario
	// runs with dark links configure a tighter budget.
	ProbeBudget time.Duration
	// Transport is the delivery model stamped onto every published graph
	// snapshot, so the optimizer prices transfers under it (see
	// cost.DeliverySeconds). The zero value keeps the historical NACK
	// pricing.
	Transport cost.TransportMode
	// Clock is the timing source of the background Prober. nil selects the
	// wall clock; the scenario engine and deterministic tests inject a
	// clock.Virtual. (This only paces the Prober's ticks — probe transfers
	// themselves always run on the emulated network's own virtual clock.)
	Clock clock.Clock
}

func (c *Config) fill() {
	if c.ProbeRepeats < 1 {
		c.ProbeRepeats = 1
	}
	if c.ProbeLinksPerTick <= 0 {
		c.ProbeLinksPerTick = 2
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.05
	}
	if c.DelayFloor <= 0 {
		c.DelayFloor = 0.002
	}
	if c.EWMAAlpha <= 0 {
		c.EWMAAlpha = 0.25
	}
	if c.DeviationTolerance <= 0 {
		c.DeviationTolerance = 0.5
	}
	if c.DeviationWindow <= 0 {
		c.DeviationWindow = 2
	}
	if c.ProbeBudget <= 0 {
		c.ProbeBudget = 60 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.Wall()
	}
}

// edgeState is the Manager's per-directed-edge measurement record.
type edgeState struct {
	from, to       string
	fromIdx, toIdx int
	ch             *netsim.Channel
	bw             float64 // EWMA effective bandwidth, bytes/s
	delay          float64 // EWMA minimum delay, seconds
	confidence     float64 // last probe's fit confidence
	r2             float64 // last probe's fit quality
	loss           float64 // EWMA packet loss fraction observed while probing
	lossConf       float64 // confidence of the loss estimate, in [0, 1]
	lastProbeEpoch uint64
	everProbed     bool
}

// lossSample reads the loss fraction a probe's packets experienced from
// the channel's own accounting: the Sent/Lost deltas across the probe.
// The confidence grows with the sample size — a handful of packets says
// little about a few-percent loss process.
func lossSample(ch *netsim.Channel, before netsim.ChannelStats) (loss, conf float64) {
	after := ch.Stats()
	sent := after.Sent - before.Sent
	if sent == 0 {
		return 0, 0
	}
	lost := after.Lost - before.Lost
	loss = float64(lost) / float64(sent)
	conf = float64(sent) / float64(sent+128)
	return loss, conf
}

// Manager is one Central Manager instance: the measured graph snapshot, the
// per-edge estimate store, the shared memoized optimizer, and the counters
// the control plane exposes. All methods are safe for concurrent use; the
// underlying netsim.Network is only ever touched under the Manager's lock.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	net    *netsim.Network
	nodes  []pipeline.Node // immutable inventory, sorted by name
	idx    map[string]int
	edges  []*edgeState // deterministic (link, direction) order
	graph  *pipeline.Graph
	cache  *pipeline.Cache
	epoch  uint64 // probe ticks + full sweeps completed
	cursor int    // round-robin position for ProbeTick

	restamps      uint64 // graph revisions published after the initial one
	adaptations   uint64 // Adapter-triggered re-optimizations
	probeTimeouts uint64 // probe transfers abandoned at the probe budget

	proberStop chan struct{}
	proberDone chan struct{}
}

// New builds a Manager over the emulated network, runs the initial full
// measurement sweep, and publishes the first graph snapshot.
func New(net *netsim.Network, cfg Config) *Manager {
	cfg.fill()
	m := &Manager{
		cfg:   cfg,
		cache: pipeline.NewCache(cfg.CacheCapacity),
	}
	m.bind(net)
	m.mu.Lock()
	m.measureAllLocked(cfg.ProbeSizes, cfg.ProbeRepeats)
	m.mu.Unlock()
	return m
}

// bind inventories the network's nodes (sorted by name for deterministic
// indexes) and builds the edge-state list in (link, direction) order.
func (m *Manager) bind(net *netsim.Network) {
	nodes := net.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	m.net = net
	m.nodes = make([]pipeline.Node, 0, len(nodes))
	m.idx = make(map[string]int, len(nodes))
	for i, nd := range nodes {
		m.idx[nd.Name] = i
		m.nodes = append(m.nodes, pipeline.Node{
			Name:             nd.Name,
			Power:            nd.Power,
			HasGPU:           nd.HasGPU,
			Workers:          nd.Workers,
			ScatterBW:        DefaultScatterBW,
			ParallelOverhead: DefaultParallelOverhead,
		})
	}
	for _, l := range net.Links() {
		for _, ch := range []*netsim.Channel{l.AB, l.BA} {
			m.edges = append(m.edges, &edgeState{
				from: ch.From.Name, to: ch.To.Name, ch: ch,
				fromIdx: m.idx[ch.From.Name], toIdx: m.idx[ch.To.Name],
			})
		}
	}
}

// MeasureAll runs a full authoritative probing sweep with the configured
// sizes: every directed edge is probed, estimates adopt the raw results,
// and the graph is re-stamped only if something moved past the tolerance.
func (m *Manager) MeasureAll() {
	m.mu.Lock()
	m.measureAllLocked(m.cfg.ProbeSizes, m.cfg.ProbeRepeats)
	m.mu.Unlock()
}

// MeasureAllWith is MeasureAll with an explicit probe sweep.
func (m *Manager) MeasureAllWith(sizes []int, repeats int) {
	m.mu.Lock()
	if repeats < 1 {
		repeats = 1
	}
	m.measureAllLocked(sizes, repeats)
	m.mu.Unlock()
}

func (m *Manager) measureAllLocked(sizes []int, repeats int) {
	m.epoch++
	for _, st := range m.edges {
		before := st.ch.Stats()
		est := cost.MeasureEPBBounded(st.ch, sizes, repeats, m.cfg.ProbeBudget)
		if est.TimedOut {
			m.probeTimeouts++
		}
		// Full sweeps are authoritative: adopt raw values so a genuinely
		// changed network converges in one sweep instead of EWMA steps.
		// (TimedOut estimates carry the collapse bound in EPB/MinDelay, so
		// adopting them raw marks a dark edge repulsive immediately.)
		st.bw = est.EPB
		st.delay = est.MinDelay.Seconds()
		st.confidence = est.Confidence
		st.r2 = est.R2
		st.loss, st.lossConf = lossSample(st.ch, before)
		st.lastProbeEpoch = m.epoch
		st.everProbed = true
	}
	m.publishLocked()
}

// ProbeTick re-probes the next ProbeLinksPerTick edges round-robin and
// folds the results into the EWMA estimates, weighting the step by each
// probe's fit confidence. It returns true when the drift crossed the
// tolerance and a re-stamped graph snapshot was published.
func (m *Manager) ProbeTick() bool {
	m.mu.Lock()
	if len(m.edges) == 0 {
		m.mu.Unlock()
		return false
	}
	m.epoch++
	k := m.cfg.ProbeLinksPerTick
	if k > len(m.edges) {
		k = len(m.edges)
	}
	for i := 0; i < k; i++ {
		st := m.edges[m.cursor]
		m.cursor = (m.cursor + 1) % len(m.edges)
		before := st.ch.Stats()
		est := cost.MeasureEPBBounded(st.ch, m.cfg.ProbeSizes, m.cfg.ProbeRepeats, m.cfg.ProbeBudget)
		obsLoss, obsLossConf := lossSample(st.ch, before)
		if est.TimedOut {
			m.probeTimeouts++
			// The probe never completed: the link is dark or collapsed.
			// Adopt the timeout's collapse bound raw — a dead edge must be
			// repulsive after its first re-probe, not after an EWMA glide.
			st.bw = est.EPB
			st.delay = est.MinDelay.Seconds()
			st.confidence = 0
			st.r2 = 0
			st.loss, st.lossConf = obsLoss, obsLossConf
			st.lastProbeEpoch = m.epoch
			st.everProbed = true
			continue
		}
		if est.EPB <= 0 || est.Confidence <= 0 {
			continue // degenerate fit: keep the prior estimate
		}
		alpha := m.cfg.EWMAAlpha * est.Confidence
		lossAlpha := m.cfg.EWMAAlpha * obsLossConf
		if !st.everProbed {
			alpha = 1
			lossAlpha = 1
		}
		st.bw += alpha * (est.EPB - st.bw)
		st.delay += alpha * (est.MinDelay.Seconds() - st.delay)
		st.confidence = est.Confidence
		st.r2 = est.R2
		st.loss += lossAlpha * (obsLoss - st.loss)
		st.lossConf = obsLossConf
		st.lastProbeEpoch = m.epoch
		st.everProbed = true
	}
	pub := m.publishLocked()
	m.mu.Unlock()
	return pub
}

// drifted reports whether the estimate (want) moved past the tolerance
// relative to the published value (have). floor is the minimum absolute
// drift that counts, guarding near-zero baselines and sub-noise wobble.
func (m *Manager) drifted(have, want, floor float64) bool {
	diff := want - have
	if diff < 0 {
		diff = -diff
	}
	base := have
	if base < 0 {
		base = -base
	}
	th := m.cfg.Tolerance * base
	if th < floor {
		th = floor
	}
	return diff > th
}

// publishLocked compares the estimate store against the published graph and
// replaces the snapshot only on tolerance-crossing drift. Returns true when
// a new snapshot (with a fresh Rev) was published.
func (m *Manager) publishLocked() bool {
	if m.graph == nil {
		g := pipeline.NewGraph(m.nodes...)
		g.Transport = m.cfg.Transport
		for _, st := range m.edges {
			g.AddEdge(st.fromIdx, st.toIdx, st.bw, st.delay)
			row := g.Adj[st.fromIdx]
			row[len(row)-1].Loss = st.loss
			row[len(row)-1].LossConf = st.lossConf
		}
		g.Rev = pipeline.NextGraphRev()
		m.graph = g
		return true
	}
	var ups []pipeline.EdgeUpdate
	for _, st := range m.edges {
		up := pipeline.EdgeUpdate{From: st.fromIdx, To: st.toIdx, Bandwidth: st.bw, Delay: st.delay,
			Loss: st.loss, LossConf: st.lossConf}
		e := m.graph.FindEdge(st.fromIdx, st.toIdx)
		if e == nil {
			ups = append(ups, up)
			continue
		}
		// Loss drifts are gated on an absolute floor: a fraction of a
		// percent either way is probe noise, not a condition change worth
		// repricing (and re-negotiating) every mapping for.
		if m.drifted(e.Bandwidth, st.bw, 1) || m.drifted(e.Delay, st.delay, m.cfg.DelayFloor) ||
			m.drifted(e.Loss, st.loss, 0.01) {
			ups = append(ups, up)
		}
	}
	if len(ups) == 0 {
		return false
	}
	m.graph = m.graph.ApplyEdgeUpdates(ups)
	m.restamps++
	return true
}

// Graph returns the current published snapshot. Snapshots are immutable;
// holders keep a consistent view across concurrent probe ticks.
func (m *Manager) Graph() *pipeline.Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.graph
}

// Network returns the emulated network the Manager probes. Callers that
// perturb it (tests degrading a link) race only with the prober; drive
// ProbeTick manually or keep the background prober off while doing so.
func (m *Manager) Network() *netsim.Network {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.net
}

// CacheStats reports the shared optimizer-cache counters.
func (m *Manager) CacheStats() pipeline.CacheStats { return m.cache.Stats() }

// Estimates returns the per-edge measurement store as the estimator's
// result type, keyed "from->to" (the shape the probing layer historically
// reported).
func (m *Manager) Estimates() map[string]cost.PathEstimate {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]cost.PathEstimate, len(m.edges))
	for _, st := range m.edges {
		out[st.from+"->"+st.to] = cost.PathEstimate{
			EPB:        st.bw,
			MinDelay:   time.Duration(st.delay * float64(time.Second)),
			R2:         st.r2,
			Confidence: st.confidence,
			Loss:       st.loss,
			LossConf:   st.lossConf,
		}
	}
	return out
}

// Optimize answers a session's consultation: the memoized Eq. 9-10 dynamic
// program over the current graph snapshot between the named endpoints.
func (m *Manager) Optimize(p *pipeline.Pipeline, srcName, dstName string) (*pipeline.VRT, error) {
	m.mu.Lock()
	g := m.graph
	m.mu.Unlock()
	src, dst := g.NodeIndex(srcName), g.NodeIndex(dstName)
	if src < 0 || dst < 0 {
		return nil, fmt.Errorf("cm: unknown endpoint %q or %q", srcName, dstName)
	}
	return m.cache.Optimize(g, p, src, dst)
}

// OptimizeMultiTiered answers a fan-out consultation: the memoized
// shared-tree dynamic program over the current graph snapshot from the named
// data source to the named viewer hosts. The optimizer may degrade
// individual delivery branches down the quality ladder (up to maxTier) when
// the delivery gain beats the fidelity penalty; cost.TierFull keeps every
// branch at full resolution. Identical (graph, pipeline, source, viewer-set,
// tier budget) instances — every viewer of a session after the first — are
// answered from the cache.
func (m *Manager) OptimizeMultiTiered(p *pipeline.Pipeline, srcName string, dstNames []string, maxTier cost.Tier) (*pipeline.VRTree, error) {
	m.mu.Lock()
	g := m.graph
	m.mu.Unlock()
	src := g.NodeIndex(srcName)
	if src < 0 {
		return nil, fmt.Errorf("cm: unknown endpoint %q", srcName)
	}
	dsts := make([]int, len(dstNames))
	for i, name := range dstNames {
		if dsts[i] = g.NodeIndex(name); dsts[i] < 0 {
			return nil, fmt.Errorf("cm: unknown endpoint %q", name)
		}
	}
	return m.cache.OptimizeMultiTiered(g, p, src, dsts, maxTier)
}

// NodeNames returns the measured hosts in graph order — the valid
// SourceNode/ClientNode values a session request may name.
func (m *Manager) NodeNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.nodes))
	for i, nd := range m.nodes {
		out[i] = nd.Name
	}
	return out
}

// PredictPlacement evaluates an installed placement under the *current*
// graph snapshot — the monitor half of the loop. A placement whose
// evaluation has drifted above its VRT's at-install prediction is the
// signal Adapters watch for.
func (m *Manager) PredictPlacement(p *pipeline.Pipeline, srcName string, placement []string) (float64, error) {
	m.mu.Lock()
	g := m.graph
	m.mu.Unlock()
	return pipeline.EvaluatePlacement(g, p, srcName, placement)
}

// noteAdaptation counts an Adapter trigger.
func (m *Manager) noteAdaptation() {
	m.mu.Lock()
	m.adaptations++
	m.mu.Unlock()
}

// Start launches the background Prober: one ProbeTick per ProbeInterval on
// the configured Clock (wall by default), until Stop. It is a no-op when
// ProbeInterval <= 0 or a prober is already running.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.cfg.ProbeInterval <= 0 || m.proberStop != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.proberStop, m.proberDone = stop, done
	interval := m.cfg.ProbeInterval
	m.mu.Unlock()

	clk := m.cfg.Clock
	go func() {
		defer close(done)
		// A timer re-armed after each tick, not a ticker: the re-arm is the
		// "work finished" edge the virtual clock's deterministic rendezvous
		// needs (see the clock package contract).
		timer := clk.NewTimer(interval)
		defer timer.Stop()
		for {
			select {
			case <-stop:
				return
			case <-timer.C():
				m.ProbeTick()
				timer.Reset(interval)
			}
		}
	}()
}

// Stop halts the background Prober and waits for it to exit.
func (m *Manager) Stop() {
	m.mu.Lock()
	stop, done := m.proberStop, m.proberDone
	m.proberStop, m.proberDone = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
