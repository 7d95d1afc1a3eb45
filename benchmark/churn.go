package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"ricsa/internal/cm"
	"ricsa/internal/cost"
	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
	"ricsa/internal/simengine"
	"ricsa/internal/steering"
)

// cm-churn is the only workload where cm, pipeline, netsim and cost do all
// the work: no sessions, no HTTP, one goroutine. A seeded netsim.Network
// of 48 nodes (a ring plus 48 seeded chords; every direction of every
// link has its own bandwidth, delay, 0-1 % loss and cross-traffic
// process) is measured by a cm.Manager pricing in transport mode auto.
// 128 logical sessions consult it: three in four ask Optimize for one
// destination, one in four OptimizeMultiTiered for three destinations
// with a tier budget down to delta; their 16 pipelines come from
// steering.BuildIsoPipeline on seeded fields and pipeline.RandomPipeline.
//
// One epoch is what the service does to re-map every session after the
// network moved: on odd epochs three links are perturbed (bandwidth scale,
// delay or loss — not down/up: dark links make truth prices infinite and
// are the scenario suite's job), then always 8 ProbeTicks of 4 edges each
// (a sixth of the directed edges, so estimates are realistically stale),
// then every session consults twice. The CM keeps its default 5 % tolerance
// gate. On a network this size, with loss, jitter and cross traffic on
// every link, the gate lets a re-stamp through on most ticks
// (cm.restamp_share, re-stamps per tick, is about 0.8), so in nearly every epoch each
// session's first consultation misses the cache and its second hits
// (pipeline.cache_hit_share is about 0.51): an epoch is mostly 128 runs of
// the dynamic program. Both shares are reported exactly, so a change that
// makes the gate hold shows as what it is.
const (
	churnNodes        = 48
	churnChords       = 48
	churnSessions     = 128
	churnTicks        = 8
	churnLinksPerTick = 4
	churnPerturbed    = 3
	churnConsults     = 2
	// churnPrefix is how many epochs the seeded-exact metrics cover. They
	// run on virtual time from the seed alone, so a twin manager stepped
	// through the same epochs must reproduce them bit for bit.
	churnPrefix = 120
	// churnBallast is the heap a live service would hold beside the CM.
	churnBallast = 32 << 20
)

type churnSession struct {
	pipe *pipeline.Pipeline
	src  string
	dsts []string
}

// linkBase is a link's generated configuration, the point perturbations
// are drawn around so that repeated scaling cannot drift a link to zero.
type linkBase struct {
	bwAB, bwBA float64
	delay      time.Duration
}

type churnRig struct {
	net      *netsim.Network
	mgr      *cm.Manager
	sessions []churnSession
	base     []linkBase
	rng      *rand.Rand
	// neighbours lists each node's adjacent nodes by index.
	neighbours [][]int
}

func (r *churnRig) close() error { return nil }

func churnNodeName(i int) string { return "n" + strconv.Itoa(100 + i)[1:] }

// churnNetwork generates the emulated WAN from the seed.
func churnNetwork(seed int64, rng *rand.Rand) (*netsim.Network, []linkBase) {
	net := netsim.New(seed)
	nodes := make([]*netsim.Node, churnNodes)
	for i := range nodes {
		nodes[i] = net.AddNode(churnNodeName(i), 0.6+1.4*rng.Float64())
		nodes[i].HasGPU = i%2 == 0 || rng.Float64() < 0.25
		if rng.Float64() < 0.25 {
			nodes[i].Workers = 2 + rng.Intn(7)
		}
	}
	var base []linkBase
	direction := func(delay time.Duration) (netsim.LinkConfig, float64) {
		bw := (2 + 18*rng.Float64()) * netsim.MB
		return netsim.LinkConfig{
			Bandwidth: bw,
			Delay:     delay,
			Loss:      0.01 * rng.Float64(),
			Jitter:    delay / 10,
			Cross:     netsim.DefaultCrossTraffic(0.7 + 0.25*rng.Float64()),
		}, bw
	}
	connect := func(a, b int) {
		delay := time.Duration((2 + 20*rng.Float64()) * float64(time.Millisecond))
		ab, bwAB := direction(delay)
		ba, bwBA := direction(delay)
		net.ConnectAsym(nodes[a], nodes[b], ab, ba)
		base = append(base, linkBase{bwAB, bwBA, delay})
	}
	for i := range nodes {
		connect(i, (i+1)%churnNodes)
	}
	for added := 0; added < churnChords; {
		a, b := rng.Intn(churnNodes), rng.Intn(churnNodes)
		if a == b || net.FindLink(nodes[a].Name, nodes[b].Name) != nil {
			continue
		}
		connect(a, b)
		added++
	}
	return net, base
}

// churnPipelines generates the pipeline models the sessions share: cost
// models of seeded simulation snapshots, as a live session builds them,
// and random module chains.
func churnPipelines(rng *rand.Rand) []*pipeline.Pipeline {
	var pipes []*pipeline.Pipeline
	for i := 0; i < 4; i++ {
		sim := simengine.NewSod(32, 16, 16, simengine.DefaultSodParams())
		sim.SetWorkers(1)
		for step := 0; step < 4*(i+1); step++ {
			sim.Step()
		}
		iso := float32(0.3 + 0.4*rng.Float64())
		pipes = append(pipes, steering.BuildIsoPipeline(steering.AnalyzeDataset(sim.Density(), "sod", 8, iso)))
	}
	// The lengths are dealt, not drawn: the dynamic program's cost grows
	// with the pipeline's length, and an epoch's time should depend on the
	// seed through the network and the mappings, not through how many long
	// pipelines it happened to draw.
	for i := 0; i < 12; i++ {
		pipes = append(pipes, pipeline.RandomPipeline(rng, 3+i%4, i%8 < 4))
	}
	return pipes
}

// walk returns the node a short seeded random walk from node i ends on.
// The optimizer moves a pipeline one hop per module at most, so a
// destination must be near its source to be reachable at all.
func (r *churnRig) walk(i int) int {
	for hops := 1 + r.rng.Intn(2); hops > 0; hops-- {
		i = r.neighbours[i][r.rng.Intn(len(r.neighbours[i]))]
	}
	return i
}

// setupChurn builds the network, measures it (cm.New runs the initial full
// sweep) and draws the sessions, resampling endpoints until the optimizer
// finds each a feasible mapping — on no workload may an operation fail.
func setupChurn(cfg runConfig) (*churnRig, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	net, base := churnNetwork(cfg.seed, rng)
	r := &churnRig{net: net, base: base, rng: rng, neighbours: make([][]int, churnNodes)}
	index := make(map[string]int, churnNodes)
	for i := 0; i < churnNodes; i++ {
		index[churnNodeName(i)] = i
	}
	for _, l := range net.Links() {
		a, b := index[l.A.Name], index[l.B.Name]
		r.neighbours[a] = append(r.neighbours[a], b)
		r.neighbours[b] = append(r.neighbours[b], a)
	}
	r.mgr = cm.New(net, cm.Config{
		ProbeSizes:        []int{32 << 10, 128 << 10, 512 << 10},
		ProbeLinksPerTick: churnLinksPerTick,
		Transport:         cost.TransportAuto,
	})
	pipes := churnPipelines(rng)
	for tries := 0; len(r.sessions) < churnSessions; tries++ {
		if tries > 100*churnSessions {
			return nil, fmt.Errorf("cm-churn: could not draw %d feasible sessions", churnSessions)
		}
		src := rng.Intn(churnNodes)
		// Every pipeline serves as many sessions as every other, and the
		// three-destination sessions (one in four) go round the pipelines.
		k := len(r.sessions)
		s := churnSession{pipe: pipes[(k+k/len(pipes))%len(pipes)], src: churnNodeName(src)}
		nDst := 1
		if k%4 == 3 {
			nDst = 3
		}
		for len(s.dsts) < nDst {
			s.dsts = append(s.dsts, churnNodeName(r.walk(src)))
		}
		if _, _, err := r.consult(s); err == nil {
			r.sessions = append(r.sessions, s)
		}
	}
	return r, nil
}

// consult asks the CM for the session's mapping and returns its predicted
// delay and, for a single destination, its placement.
func (r *churnRig) consult(s churnSession) (float64, *pipeline.VRT, error) {
	if len(s.dsts) == 1 {
		vrt, err := r.mgr.Optimize(s.pipe, s.src, s.dsts[0])
		if err != nil {
			return 0, nil, err
		}
		return vrt.Delay, vrt, nil
	}
	tree, err := r.mgr.OptimizeMultiTiered(s.pipe, s.src, s.dsts, cost.TierDelta)
	if err != nil {
		return 0, nil, err
	}
	if len(tree.Branches) != len(s.dsts) {
		return 0, nil, fmt.Errorf("tree has %d branches for %d destinations", len(tree.Branches), len(s.dsts))
	}
	return tree.Delay, nil, nil
}

// perturb changes three links' ground truth: bandwidth, delay or loss.
func (r *churnRig) perturb() {
	links := r.net.Links()
	for i := 0; i < churnPerturbed; i++ {
		k := r.rng.Intn(len(links))
		l, b := links[k], r.base[k]
		switch r.rng.Intn(3) {
		case 0:
			f := 0.4 + 1.2*r.rng.Float64()
			l.AB.SetBandwidth(b.bwAB * f)
			l.BA.SetBandwidth(b.bwBA * f)
		case 1:
			l.SetDelay(time.Duration(float64(b.delay) * (0.5 + 1.5*r.rng.Float64())))
		case 2:
			p := 0.01 * r.rng.Float64()
			l.AB.SetLoss(p)
			l.BA.SetLoss(p)
		}
	}
}

// truthGraph prices the network's current ground truth on the CM's node
// inventory — each channel's cross-traffic-scaled bandwidth, configured
// delay, and configured loss at confidence 1 — the way the scenario
// engine's truthGraph does.
func (r *churnRig) truthGraph() *pipeline.Graph {
	g := r.mgr.Graph()
	tg := pipeline.NewGraph(g.Nodes...)
	tg.Transport = g.Transport
	for _, l := range r.net.Links() {
		for _, ch := range []*netsim.Channel{l.AB, l.BA} {
			from := g.NodeIndex(ch.From.Name)
			tg.AddEdge(from, g.NodeIndex(ch.To.Name), ch.EffectiveBandwidth(), ch.Config().Delay.Seconds())
			row := tg.Adj[from]
			row[len(row)-1].Loss = ch.Config().Loss
			row[len(row)-1].LossConf = 1
		}
	}
	return tg
}

// churnStats is what the epochs of one manager added up to.
type churnStats struct {
	epochMS           []float64
	tickUS            []float64
	hitUS, missUS     []float64
	regret, predError []float64
	consults, failed  int
	errs              []string
}

// exact is the seeded-exact summary of the first churnPrefix epochs.
type churnExact struct {
	regretP90, predErrorP50 float64
	hitShare, restampShare  float64
	probeTimeouts           float64
}

// epoch runs one epoch. timed selects per-call spans (a traced run);
// price selects ground-truth pricing of every single-destination mapping,
// which happens after the epoch's clock has stopped.
func (r *churnRig) epoch(n int, st *churnStats, tr *tracer, timed, price bool) {
	trace := "epoch-" + strconv.Itoa(n)
	spans := tr != nil && n < 20
	start := time.Now()
	if n%2 == 1 {
		r.perturb()
	}
	for i := 0; i < churnTicks; i++ {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		r.mgr.ProbeTick()
		if timed {
			t1 := time.Now()
			st.tickUS = append(st.tickUS, us(t1.Sub(t0)))
			if spans {
				tr.add(trace, 0, "cm.probe_tick", t0, t1, nil)
			}
		}
	}
	installed := make([]*pipeline.VRT, len(r.sessions))
	for pass := 0; pass < churnConsults; pass++ {
		for i, s := range r.sessions {
			var t0 time.Time
			var misses uint64
			if timed {
				misses = r.mgr.CacheStats().Misses
				t0 = time.Now()
			}
			d, vrt, err := r.consult(s)
			if timed {
				t1 := time.Now()
				hit := r.mgr.CacheStats().Misses == misses
				if hit {
					st.hitUS = append(st.hitUS, us(t1.Sub(t0)))
				} else {
					st.missUS = append(st.missUS, us(t1.Sub(t0)))
				}
				if spans {
					tr.add(trace, 0, "cm.optimize", t0, t1, map[string]string{"hit": strconv.FormatBool(hit)})
				}
			}
			st.consults++
			if err != nil || math.IsInf(d, 0) || d <= 0 {
				st.failed++
				st.errs = append(st.errs, fmt.Sprintf("epoch %d session %d: delay %g, err %v", n, i, d, err))
			}
			installed[i] = vrt
		}
	}
	end := time.Now()
	st.epochMS = append(st.epochMS, ms(end.Sub(start)))
	if !price {
		return
	}
	truth := r.truthGraph()
	for i, s := range r.sessions {
		vrt := installed[i]
		if vrt == nil {
			continue
		}
		priced, err := pipeline.EvaluatePlacement(truth, s.pipe, s.src, steering.PlacementFromVRT(vrt))
		best, berr := pipeline.Optimize(truth, s.pipe, truth.NodeIndex(s.src), truth.NodeIndex(s.dsts[0]))
		if err != nil || berr != nil {
			st.failed++
			st.errs = append(st.errs, fmt.Sprintf("epoch %d session %d: truth pricing: %v %v", n, i, err, berr))
			continue
		}
		st.regret = append(st.regret, priced/best.Delay-1)
		st.predError = append(st.predError, math.Abs(vrt.Delay-priced)/priced)
	}
	if spans {
		tr.add(trace, 0, "truth.price", end, time.Now(), nil)
	}
}

// runPrefix steps a freshly set-up manager through the exact prefix and
// summarises it.
func (r *churnRig) runPrefix(st *churnStats, tr *tracer, timed bool) churnExact {
	cache0, restamps0, timeouts0 := r.mgr.CacheStats(), r.mgr.Restamps(), r.mgr.ProbeTimeouts()
	for n := 0; n < churnPrefix; n++ {
		r.epoch(n, st, tr, timed, true)
	}
	cache := r.mgr.CacheStats()
	hits, misses := float64(cache.Hits-cache0.Hits), float64(cache.Misses-cache0.Misses)
	return churnExact{
		regretP90:     quantile(sortedCopy(st.regret), 0.9),
		predErrorP50:  quantile(sortedCopy(st.predError), 0.5),
		hitShare:      ratio(hits, hits+misses),
		restampShare:  float64(r.mgr.Restamps()-restamps0) / (churnPrefix * churnTicks),
		probeTimeouts: float64(r.mgr.ProbeTimeouts() - timeouts0),
	}
}

func runChurn(cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{layer: make(map[string]float64)}
	rig, err := repeatSetup(cfg, out, setupChurn)
	if err != nil {
		return nil, err
	}
	// Alone, the control plane keeps a few MiB alive and the collector would
	// run every other epoch, which no deployment's does: a live service's
	// heap is tens of MiB (proc.heap_inuse_peak_mib on the live workloads).
	// The ballast stands for that heap. It holds no pointers, so it is never
	// scanned and its pages are never touched; it only sets the collector's
	// pace, and keeps that pace from depending on how many samples the
	// harness itself has kept so far.
	ballast := make([]byte, churnBallast)
	defer runtime.KeepAlive(ballast)
	procBefore := readProc()
	start := time.Now()
	st := &churnStats{}
	exact := rig.runPrefix(st, tr, cfg.traced)
	var heapPeak uint64
	for n := churnPrefix; time.Since(start) < cfg.window; n++ {
		rig.epoch(n, st, tr, cfg.traced, false)
		if cfg.traced && n%64 == 0 {
			heapPeak = max(heapPeak, heapNow())
		}
	}
	procAfter := readProc()

	// The twin: the same seed, the same epochs, the same numbers.
	twin, err := setupChurn(cfg)
	if err != nil {
		return nil, err
	}
	if got := twin.runPrefix(&churnStats{}, nil, false); got != exact {
		out.violate("twin run on seed %d does not reproduce the exact metrics: %+v vs %+v", cfg.seed, got, exact)
	}

	out.attempted = st.consults
	out.failed = st.failed
	for _, e := range st.errs {
		if len(out.violations) < 20 {
			out.violations = append(out.violations, e)
		}
	}
	out.latencyMS = st.epochMS
	// Pricing the truth happens between epochs, off their clock, so the
	// rate is consultations per second of epoch time.
	epochSeconds := 0.0
	for _, e := range st.epochMS {
		epochSeconds += e / 1000
	}
	out.throughput = ratio(float64(st.consults), epochSeconds)

	if cfg.traced {
		procLayer(out.layer, procBefore, procAfter, float64(len(st.epochMS)), heapPeak)
		out.layer["cm.probe_tick_us"] = median(st.tickUS)
		out.layer["cm.optimize_hit_us"] = median(st.hitUS)
		out.layer["cm.optimize_miss_us"] = median(st.missUS)
		out.layer["cm.restamp_share"] = exact.restampShare
		out.layer["cm.probe_timeouts"] = exact.probeTimeouts
		out.layer["cm.mapping_regret_p90"] = exact.regretP90
		out.layer["cm.prediction_error_p50"] = exact.predErrorP50
		out.layer["pipeline.cache_hit_share"] = exact.hitShare
		redundancy, edges := 0.0, 0.0
		for _, row := range rig.mgr.Graph().Adj {
			for _, e := range row {
				redundancy += cost.FECRedundancy(e.Loss, e.LossConf)
				edges++
			}
		}
		out.layer["cost.fec_redundancy_mean"] = ratio(redundancy, edges)
	}
	return out, nil
}
