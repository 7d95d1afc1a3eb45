package cm

import (
	"testing"
	"time"

	"ricsa/internal/clock"
	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
)

// quietTestbed is the live-service network shape: no loss, mild cross
// traffic, deterministic for a given seed.
func quietTestbed(seed int64) *netsim.Network {
	tb := netsim.DefaultTestbed()
	tb.Loss = 0
	tb.CrossMean = 0.9
	return netsim.Testbed(seed, tb)
}

func testConfig() Config {
	return Config{
		ProbeSizes:   []int{256 << 10, 1 << 20},
		ProbeRepeats: 1,
	}
}

func testPipeline() *pipeline.Pipeline {
	return &pipeline.Pipeline{
		Name:        "t",
		SourceBytes: 4 << 20,
		Modules: []pipeline.Module{
			{Name: "Filter", RefTime: 0.05, OutBytes: 4 << 20, Parallelizable: true},
			{Name: "Extract", RefTime: 0.3, OutBytes: 1 << 20, Parallelizable: true},
			{Name: "Render", RefTime: 0.1, OutBytes: 1 << 20, NeedsGPU: true},
			{Name: "Deliver", RefTime: 0.01, OutBytes: 1 << 20},
		},
	}
}

func TestNewMeasuresEveryEdge(t *testing.T) {
	net := quietTestbed(1)
	m := New(net, testConfig())
	g := m.Graph()
	if g == nil || g.Rev == 0 {
		t.Fatal("no stamped graph after construction")
	}
	if len(g.Nodes) != 6 {
		t.Fatalf("%d nodes, want 6", len(g.Nodes))
	}
	want := 2 * len(net.Links())
	if g.EdgeCount() != want {
		t.Fatalf("edge count %d, want %d", g.EdgeCount(), want)
	}
	for key, est := range m.Estimates() {
		if est.EPB <= 0 {
			t.Fatalf("edge %s has non-positive EPB %v", key, est.EPB)
		}
	}
	if m.ProbeEpoch() != 1 {
		t.Fatalf("epoch %d after initial sweep, want 1", m.ProbeEpoch())
	}
}

// TestProbeTickDetectsDegradation drives the Prober round-robin until it
// re-probes a collapsed link, and checks the graph is re-stamped and the
// optimizer avoids the dead edge.
func TestProbeTickDetectsDegradation(t *testing.T) {
	m := New(quietTestbed(7), testConfig())
	p := testPipeline()
	vrt, err := m.Optimize(p, netsim.GaTech, netsim.ORNL)
	if err != nil {
		t.Fatal(err)
	}
	onPath := func(v *pipeline.VRT, node string) bool {
		for _, n := range v.Path() {
			if n == node {
				return true
			}
		}
		return false
	}
	if !onPath(vrt, netsim.UT) {
		t.Fatalf("fixture: expected the fast UT path, got %v", vrt.Path())
	}

	l := m.Network().FindLink(netsim.GaTech, netsim.UT)
	l.AB.SetBandwidth(l.AB.Config().Bandwidth * 0.02)
	l.BA.SetBandwidth(l.BA.Config().Bandwidth * 0.02)

	rev := m.Graph().Rev
	restamped := false
	// One full round-robin pass over all edges guarantees the degraded link
	// is re-probed.
	for i := 0; i < len(m.Estimates()); i++ {
		if m.ProbeTick() {
			restamped = true
		}
	}
	if !restamped {
		t.Fatal("collapsed link never re-stamped the graph")
	}
	if m.Graph().Rev == rev {
		t.Fatal("graph rev unchanged after degradation")
	}
	vrt2, err := m.Optimize(p, netsim.GaTech, netsim.ORNL)
	if err != nil {
		t.Fatal(err)
	}
	if onPath(vrt2, netsim.UT) && vrt2.Delay >= vrt.Delay*2 {
		t.Fatalf("optimizer kept the collapsed path: %v (%.2fs)", vrt2.Path(), vrt2.Delay)
	}
}

func TestProbeTickRoundRobinCoversEdges(t *testing.T) {
	m := New(quietTestbed(3), Config{ProbeSizes: []int{256 << 10, 1 << 20}, ProbeLinksPerTick: 3})
	nEdges := len(m.Estimates())
	ticks := (nEdges + 2) / 3
	for i := 0; i < ticks; i++ {
		m.ProbeTick()
	}
	st := m.Status()
	for _, e := range st.Edges {
		if e.ProbeEpoch <= 1 {
			t.Fatalf("edge %s->%s never re-probed (epoch %d)", e.From, e.To, e.ProbeEpoch)
		}
		if e.StaleTicks > uint64(ticks) {
			t.Fatalf("edge %s->%s staleness %d exceeds tick count %d", e.From, e.To, e.StaleTicks, ticks)
		}
	}
}

// TestProbeTickMarksDarkLinkDead pins the probe-budget path: probing a dark
// link times out instead of hanging, and the edge's estimate adopts the
// collapse bound raw so the optimizer avoids it immediately.
func TestProbeTickMarksDarkLinkDead(t *testing.T) {
	cfg := testConfig()
	cfg.ProbeBudget = time.Second
	m := New(quietTestbed(7), cfg)
	l := m.Network().FindLink(netsim.GaTech, netsim.UT)
	l.SetDown(true)

	restamped := false
	for i := 0; i < len(m.Estimates()); i++ {
		if m.ProbeTick() {
			restamped = true
		}
	}
	if !restamped {
		t.Fatal("dark link never re-stamped the graph")
	}
	est := m.Estimates()[netsim.GaTech+"->"+netsim.UT]
	// 1 MiB probe over the 1s budget bounds the estimate at ~1 MiB/s —
	// far below the healthy 12 MB/s.
	if est.EPB > float64(2<<20) {
		t.Fatalf("dark edge still estimated at %.0f B/s", est.EPB)
	}
	vrt, err := m.Optimize(testPipeline(), netsim.GaTech, netsim.ORNL)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range vrt.Path() {
		if node == netsim.UT {
			t.Fatalf("optimizer still routes via the dark link: %v", vrt.Path())
		}
	}
}

func TestAdapterWindow(t *testing.T) {
	m := New(quietTestbed(1), testConfig())
	a := m.NewAdapterTuned(0.5, 2)

	if a.Observe(1.0, 0) {
		t.Fatal("triggered with no installed VRT")
	}
	if a.Observe(1.4, 1.0) {
		t.Fatal("triggered within tolerance")
	}
	if a.Observe(2.0, 1.0) {
		t.Fatal("triggered on the first deviating frame (window 2)")
	}
	if !a.Observe(2.0, 1.0) {
		t.Fatal("no trigger after two consecutive deviations")
	}
	// Streak resets after a trigger and after a healthy frame.
	if a.Observe(2.0, 1.0) {
		t.Fatal("streak not reset after trigger")
	}
	a.Observe(1.0, 1.0)
	if a.Observe(2.0, 1.0) {
		t.Fatal("healthy frame did not reset the streak")
	}
	if m.Adaptations() != 1 {
		t.Fatalf("manager adaptations %d, want 1", m.Adaptations())
	}
}

// TestBackgroundProberTicks drives the background Prober on a virtual
// clock: four interval boundaries yield exactly four ticks, with no sleeps
// and no deadline polling.
func TestBackgroundProberTicks(t *testing.T) {
	cfg := testConfig()
	cfg.ProbeInterval = 100 * time.Millisecond
	clk := clock.NewVirtual(time.Unix(0, 0))
	cfg.Clock = clk
	m := New(quietTestbed(5), cfg)
	m.Start()
	defer m.Stop()
	clk.AwaitArmed(1) // the prober's timer is parked
	clk.Advance(450 * time.Millisecond)
	if got := m.ProbeEpoch(); got != 5 {
		t.Fatalf("epoch %d after initial sweep + 4 ticks, want 5", got)
	}
	m.Stop() // idempotent
	if clk.Armed() != 0 {
		t.Fatalf("%d timers still armed after Stop", clk.Armed())
	}
}

func TestStatusShape(t *testing.T) {
	m := New(quietTestbed(9), testConfig())
	st := m.Status()
	if st.Nodes != 6 || len(st.Edges) == 0 {
		t.Fatalf("status %+v lacks topology", st)
	}
	if st.GraphRev == 0 || st.ProbeEpoch != 1 {
		t.Fatalf("status rev/epoch %d/%d", st.GraphRev, st.ProbeEpoch)
	}
	if st.Tolerance <= 0 {
		t.Fatal("status missing tolerance")
	}
}

func TestPredictPlacementTracksGraph(t *testing.T) {
	m := New(quietTestbed(11), testConfig())
	p := testPipeline()
	vrt, err := m.Optimize(p, netsim.GaTech, netsim.ORNL)
	if err != nil {
		t.Fatal(err)
	}
	placement := flatten(vrt)
	pred, err := m.PredictPlacement(p, netsim.GaTech, placement)
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 {
		t.Fatalf("prediction %v", pred)
	}
	// Degrade every data link the placement uses and re-probe: the same
	// placement must now predict slower.
	l := m.Network().FindLink(netsim.GaTech, netsim.UT)
	l.AB.SetBandwidth(l.AB.Config().Bandwidth * 0.02)
	l.BA.SetBandwidth(l.BA.Config().Bandwidth * 0.02)
	m.MeasureAll()
	pred2, err := m.PredictPlacement(p, netsim.GaTech, placement)
	if err != nil {
		t.Fatal(err)
	}
	if pred2 <= pred {
		t.Fatalf("degraded prediction %v not above healthy %v", pred2, pred)
	}
}

// flatten mirrors steering.PlacementFromVRT without importing steering
// (cm must stay below it in the dependency order).
func flatten(vrt *pipeline.VRT) []string {
	var out []string
	for gi, grp := range vrt.Groups {
		mods := grp.Modules
		if gi == 0 && len(mods) > 0 && mods[0] == "Source" {
			mods = mods[1:]
		}
		for range mods {
			out = append(out, grp.Node)
		}
	}
	return out
}
