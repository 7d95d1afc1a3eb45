package steering

import (
	"math"
	"testing"
	"time"

	"ricsa/internal/dataset"
	"ricsa/internal/netsim"
	"ricsa/internal/simengine"
)

// measuredTestbed builds and measures the six-site deployment once per test.
func measuredTestbed(t *testing.T, seed int64) *Deployment {
	t.Helper()
	cfg := netsim.DefaultTestbed()
	cfg.Loss = 0 // keep unit tests fast and exact; experiments add noise
	cfg.CrossMean = 0
	net := netsim.Testbed(seed, cfg)
	d := NewDeployment(net)
	d.Measure([]int{256 << 10, 1 << 20, 4 << 20}, 1)
	return d
}

func TestMeasureBuildsCompleteGraph(t *testing.T) {
	d := measuredTestbed(t, 1)
	if d.Graph == nil {
		t.Fatal("no graph")
	}
	if len(d.Graph.Nodes) != 6 {
		t.Fatalf("%d nodes, want 6", len(d.Graph.Nodes))
	}
	// Every emulated link appears in both directions with a plausible EPB.
	if d.Graph.EdgeCount() != 2*len(d.Net.Links()) {
		t.Fatalf("edge count %d, want %d", d.Graph.EdgeCount(), 2*len(d.Net.Links()))
	}
	for key, est := range d.Estimates {
		if est.EPB <= 0 {
			t.Fatalf("channel %s has nonpositive EPB", key)
		}
		if est.R2 < 0.95 {
			t.Fatalf("channel %s fit R2=%.3f too poor", key, est.R2)
		}
	}
}

func TestMeasuredEPBNearConfigured(t *testing.T) {
	d := measuredTestbed(t, 2)
	ch := d.Net.Channel(netsim.GaTech, netsim.UT)
	est := d.Estimates[netsim.GaTech+"->"+netsim.UT]
	got := est.EPB
	want := ch.Config().Bandwidth
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("EPB %.0f, configured %.0f", got, want)
	}
}

func TestAnalyzeDatasetStats(t *testing.T) {
	spec := dataset.JetSpec.Scaled(8)
	f := dataset.Generate(spec)
	st := AnalyzeDataset(f, spec.Name, 4, dataset.DefaultIsovalue(spec.Kind))
	if st.TotalBlocks == 0 || st.ActiveBlock == 0 || st.ActiveBlock > st.TotalBlocks {
		t.Fatalf("block stats malformed: %+v", st)
	}
	if st.CellsPer != 64 {
		t.Fatalf("cells per block %d, want 64", st.CellsPer)
	}
	var sum float64
	for _, p := range st.IsoModel.PCase {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatal("case probabilities unnormalized")
	}
}

func TestBuildIsoPipelineShape(t *testing.T) {
	st := AnalyzeSpec(dataset.JetSpec.Scaled(8), 4)
	p := BuildIsoPipeline(st)
	if len(p.Modules) != 4 {
		t.Fatalf("%d modules, want 4", len(p.Modules))
	}
	if p.Modules[0].Name != "Filter" || p.Modules[3].Name != "Deliver" {
		t.Fatalf("module order wrong: %v", p.Modules)
	}
	if !p.Modules[2].NeedsGPU {
		t.Fatal("Render must need a GPU")
	}
	if p.SourceBytes != float64(dataset.JetSpec.Scaled(8).SizeBytes()) {
		t.Fatal("source bytes mismatch")
	}
	if p.Modules[1].OutBytes <= 0 || p.Modules[1].RefTime <= 0 {
		t.Fatal("extraction module must have positive cost and output")
	}
}

func TestOptimizePrefersFastClusterPath(t *testing.T) {
	d := measuredTestbed(t, 3)
	st := AnalyzeSpec(dataset.RageSpec.Scaled(4), 8)
	st.RawBytes = dataset.RageSpec.SizeBytes() // full 64 MB
	p := BuildIsoPipeline(st)
	vrt, err := d.Optimize(p, netsim.GaTech, netsim.ORNL)
	if err != nil {
		t.Fatal(err)
	}
	path := vrt.Path()
	if path[0] != netsim.GaTech || path[len(path)-1] != netsim.ORNL {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	// The paper's optimum routes through the UT cluster.
	found := false
	for _, n := range path {
		if n == netsim.UT {
			found = true
		}
	}
	if !found {
		t.Fatalf("optimal path skips the UT cluster: %v", path)
	}
}

func TestRunFrameMatchesPredictionOnCleanNetwork(t *testing.T) {
	d := measuredTestbed(t, 4)
	st := AnalyzeSpec(dataset.JetSpec.Scaled(4), 8)
	st.RawBytes = dataset.JetSpec.SizeBytes()
	p := BuildIsoPipeline(st)
	vrt, err := d.Optimize(p, netsim.GaTech, netsim.ORNL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunFrameSync(p, netsim.GaTech, PlacementFromVRT(vrt))
	if err != nil {
		t.Fatal(err)
	}
	pred := vrt.Delay
	got := res.Elapsed.Seconds()
	if math.Abs(got-pred)/pred > 0.15 {
		t.Fatalf("executed %0.3fs vs predicted %0.3fs (>15%% apart)", got, pred)
	}
}

func TestRunFrameRejectsInfeasiblePlacement(t *testing.T) {
	d := measuredTestbed(t, 5)
	st := AnalyzeSpec(dataset.JetSpec.Scaled(8), 4)
	p := BuildIsoPipeline(st)
	// Render on GaTech (no GPU) must be rejected.
	bad := []string{netsim.GaTech, netsim.GaTech, netsim.GaTech, netsim.ORNL}
	if _, err := d.RunFrameSync(p, netsim.GaTech, bad); err == nil {
		t.Fatal("infeasible placement accepted")
	}
}

// fig9TestLoop is a local copy of the experiments' Fig. 9 loop shape so the
// executor tests stay independent of the experiments package (which imports
// steering).
type fig9TestLoop struct {
	Name      string
	Source    string
	Placement []string
}

// fig9TestLoops mirrors experiments.Fig9Loops: the paper's six fixed
// comparison loops on the six-site testbed.
func fig9TestLoops() []fig9TestLoop {
	return []fig9TestLoop{
		{"Loop1 ORNL-LSU-GaTech-UT-ORNL", netsim.GaTech,
			[]string{netsim.GaTech, netsim.UT, netsim.UT, netsim.ORNL}},
		{"Loop2 ORNL-LSU-GaTech-NCState-ORNL", netsim.GaTech,
			[]string{netsim.GaTech, netsim.NCState, netsim.NCState, netsim.ORNL}},
		{"Loop3 ORNL-LSU-OSU-NCState-ORNL", netsim.OSU,
			[]string{netsim.OSU, netsim.NCState, netsim.NCState, netsim.ORNL}},
		{"Loop4 ORNL-LSU-OSU-UT-ORNL", netsim.OSU,
			[]string{netsim.OSU, netsim.UT, netsim.UT, netsim.ORNL}},
		{"Loop5 ORNL-GaTech-ORNL (PC-PC)", netsim.GaTech,
			[]string{netsim.GaTech, netsim.GaTech, netsim.ORNL, netsim.ORNL}},
		{"Loop6 ORNL-OSU-ORNL (PC-PC)", netsim.OSU,
			[]string{netsim.OSU, netsim.OSU, netsim.ORNL, netsim.ORNL}},
	}
}

func TestFig9LoopsAllExecutable(t *testing.T) {
	d := measuredTestbed(t, 6)
	st := AnalyzeSpec(dataset.JetSpec.Scaled(8), 4)
	st.RawBytes = dataset.JetSpec.SizeBytes()
	p := BuildIsoPipeline(st)
	for _, loop := range fig9TestLoops() {
		res, err := d.RunFrameSync(p, loop.Source, loop.Placement)
		if err != nil {
			t.Fatalf("%s: %v", loop.Name, err)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%s: nonpositive delay", loop.Name)
		}
	}
}

func TestOptimalLoopBeatsAllFixedLoops(t *testing.T) {
	// The core Fig. 9 claim: the DP-chosen loop outperforms every manual
	// alternative, with substantial gains over PC-PC at large sizes.
	d := measuredTestbed(t, 7)
	st := AnalyzeSpec(dataset.VisWomanSpec.Scaled(4), 8)
	st.RawBytes = dataset.VisWomanSpec.SizeBytes() // 108 MB
	p := BuildIsoPipeline(st)
	vrt, err := d.Optimize(p, netsim.GaTech, netsim.ORNL)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := d.RunFrameSync(p, netsim.GaTech, PlacementFromVRT(vrt))
	if err != nil {
		t.Fatal(err)
	}
	for _, loop := range fig9TestLoops() {
		if loop.Source != netsim.GaTech {
			continue // different data copy; compared in the full experiment
		}
		res, err := d.RunFrameSync(p, loop.Source, loop.Placement)
		if err != nil {
			t.Fatalf("%s: %v", loop.Name, err)
		}
		if res.Elapsed < opt.Elapsed {
			t.Fatalf("%s (%v) beat the optimal loop (%v)", loop.Name, res.Elapsed, opt.Elapsed)
		}
	}
}

func TestControlSendLatency(t *testing.T) {
	d := measuredTestbed(t, 8)
	var lat netsim.Time
	err := d.ControlSend([]string{netsim.ORNL, netsim.LSU, netsim.GaTech}, 4<<10, func(l netsim.Time) { lat = l })
	if err != nil {
		t.Fatal(err)
	}
	d.Net.Run()
	if lat <= 0 || lat > time.Second {
		t.Fatalf("control latency %v implausible", lat)
	}
}

func TestControlSendSameNodeHops(t *testing.T) {
	d := measuredTestbed(t, 9)
	done := false
	err := d.ControlSend([]string{netsim.ORNL, netsim.ORNL, netsim.LSU}, 1024, func(netsim.Time) { done = true })
	if err != nil {
		t.Fatal(err)
	}
	d.Net.Run()
	if !done {
		t.Fatal("co-located hop stalled")
	}
}

func TestSessionLifecycleAndSteering(t *testing.T) {
	d := measuredTestbed(t, 10)
	req := DefaultRequest()
	req.NX, req.NY, req.NZ = 48, 24, 24
	req.StepsPerFrame = 2
	s, err := NewSession(d, netsim.ORNL, netsim.ORNL, netsim.LSU, netsim.GaTech, req)
	if err != nil {
		t.Fatal(err)
	}
	if s.VRT == nil || len(s.Placement) != 4 {
		t.Fatalf("session missing VRT/placement: %v", s.Placement)
	}

	// Frame 1 unsteered; then steer the driver pressure up; two more frames.
	steered := simengine.DefaultSodParams()
	steered.LeftPressure = 8
	err = s.RunFrames(4, func(frame int) *simengine.Params {
		if frame == 1 {
			return &steered
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Frames) != 4 {
		t.Fatalf("%d frames, want 4", len(s.Frames))
	}
	if len(s.ControlLats) != 1 {
		t.Fatalf("%d control messages, want 1", len(s.ControlLats))
	}
	if s.Sim.Params().LeftPressure != 8 {
		t.Fatal("steering parameter never reached the simulator")
	}
	for i, f := range s.Frames {
		if f.Elapsed <= 0 {
			t.Fatalf("frame %d delay %v, want positive", i, f.Elapsed)
		}
	}
}

func TestSessionSteeringChangesRenderedImage(t *testing.T) {
	// Twin sessions: identical except one is steered mid-run. Their final
	// frames must differ pixelwise — the visual feedback loop works.
	run := func(steer bool) []uint8 {
		d := measuredTestbed(t, 11)
		req := DefaultRequest()
		req.NX, req.NY, req.NZ = 48, 24, 24
		req.StepsPerFrame = 5
		s, err := NewSession(d, netsim.ORNL, netsim.ORNL, netsim.LSU, netsim.GaTech, req)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunFrames(2, nil); err != nil {
			t.Fatal(err)
		}
		if steer {
			p := simengine.DefaultSodParams()
			p.LeftPressure = 12
			p.LeftDensity = 2
			s.Sim.SetParams(p)
		}
		// Enough post-steer cycles for the re-driven shock to overtake the
		// old contact and move the monitored isosurface.
		if err := s.RunFrames(16, nil); err != nil {
			t.Fatal(err)
		}
		img, err := RenderDataset(s.snapshot(), s.Req, 96, 96)
		if err != nil {
			t.Fatal(err)
		}
		return img.Pix
	}
	plain := run(false)
	steered := run(true)
	diff := 0
	for i := range plain {
		if plain[i] != steered[i] {
			diff++
		}
	}
	if diff < len(plain)/200 { // at least 0.5% of bytes must change
		t.Fatalf("steered image differs in only %d of %d bytes", diff, len(plain))
	}
}

func TestSimAPIRoundTrip(t *testing.T) {
	srv, err := StartupSimulationServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Simulation side: the Fig. 7 loop, one cycle.
	done := make(chan error, 1)
	go func() {
		if err := srv.WaitAcceptConnection(); err != nil {
			done <- err
			return
		}
		// Wait for the simulation request.
		for {
			m, err := srv.ReceiveHandleMessage(true)
			if err != nil {
				done <- err
				return
			}
			if m.Type == MsgSimulationReq {
				break
			}
		}
		sim := simengine.NewSod(32, 8, 8, simengine.DefaultSodParams())
		for cycle := 0; cycle < 5; cycle++ {
			sim.Step()
			if err := srv.PushDataToVizNode(sim.Density()); err != nil {
				done <- err
				return
			}
			if m, _ := srv.ReceiveHandleMessage(false); m != nil && m.Type == MsgNewSimulationParameters {
				sim.SetParams(m.Params)
			}
		}
		done <- nil
	}()

	cli, err := DialSimulation(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.SendRequest(DefaultRequest()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		f, err := cli.ReceiveData()
		if err != nil {
			t.Fatal(err)
		}
		if f.NX != 32 || f.NY != 8 || f.NZ != 8 {
			t.Fatalf("frame %d has shape %dx%dx%d", i, f.NX, f.NY, f.NZ)
		}
		if i == 1 {
			p := simengine.DefaultSodParams()
			p.CFL = 0.3
			if err := cli.SendParams(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
