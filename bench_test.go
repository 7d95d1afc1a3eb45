package ricsa

// One benchmark per evaluation artifact of the paper, plus ablation
// micro-benchmarks for the design choices called out in DESIGN.md. The
// experiment benchmarks run at reduced dataset scale so `go test -bench=.`
// completes quickly; cmd/ricsa-bench regenerates the full-scale tables.

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/dataset"
	"ricsa/internal/experiments"
	"ricsa/internal/fcp"
	"ricsa/internal/grid"
	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
	"ricsa/internal/simengine"
	"ricsa/internal/steering"
	"ricsa/internal/telemetry"
	"ricsa/internal/transport"
	"ricsa/internal/viz"
	"ricsa/internal/viz/marchingcubes"
	"ricsa/internal/viz/raycast"
	"ricsa/internal/viz/render"
	"ricsa/internal/viz/streamline"
)

func quickOpts() experiments.Options {
	o := experiments.DefaultOptions()
	o.AnalysisScale = 8
	o.Trials = 1
	o.BlockEdge = 4
	return o
}

// BenchmarkFig9Loops regenerates Fig. 9 (six loops x three datasets) at
// reduced analysis scale.
func BenchmarkFig9Loops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig9(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10ParaView regenerates Fig. 10 (RICSA vs ParaView-crs).
func BenchmarkFig10ParaView(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig10(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportStabilization runs the Section 3 goodput stabilizer
// for 20 virtual seconds over a lossy link.
func BenchmarkTransportStabilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunTransport(int64(i+1), 800*1024, []float64{0.05}, 20*time.Second)
		if !res[0].Converged {
			b.Fatal("stabilizer failed to converge")
		}
	}
}

// BenchmarkTransportAIMDBaseline runs the AIMD contrast baseline on the
// same class of channel.
func BenchmarkTransportAIMDBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := netsim.New(int64(i + 1))
		src := n.AddNode("s", 1)
		dst := n.AddNode("d", 1)
		l := n.ConnectAsym(src, dst,
			netsim.LinkConfig{Bandwidth: 2 * netsim.MB, Delay: 20 * time.Millisecond, Loss: 0.05, QueueLimit: 256},
			netsim.LinkConfig{Bandwidth: 2 * netsim.MB, Delay: 20 * time.Millisecond})
		transport.RunAIMD(n, l.AB, l.BA, transport.DefaultConfig(800*1024), 40*time.Millisecond, 20*time.Second)
	}
}

// BenchmarkDPOptimize times the Section 4.5 dynamic program on a
// 50-node/8-module instance (the O(n x |E|) core).
func BenchmarkDPOptimize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := pipeline.RandomGraph(rng, 50, 2)
	p := pipeline.RandomPipeline(rng, 8, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Optimize(g, p, 0, 49); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeUncached64 runs the full DP on a 64-node graph every
// iteration: the cost a multi-session service would pay per re-optimization
// without the CM's memoization layer.
func BenchmarkOptimizeUncached64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := pipeline.RandomGraph(rng, 64, 2)
	p := pipeline.RandomPipeline(rng, 8, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Optimize(g, p, 0, 63); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeCached64 is the same instance answered by the optimizer
// cache: each iteration pays fingerprinting plus a map lookup and a VRT
// clone instead of the DP. The graph carries a measurement-epoch stamp, as
// every Deployment.Measure-produced graph does, so the fingerprint is O(1).
func BenchmarkOptimizeCached64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := pipeline.RandomGraph(rng, 64, 2)
	g.Rev = pipeline.NextGraphRev()
	p := pipeline.RandomPipeline(rng, 8, false)
	c := pipeline.NewCache(0)
	if _, err := c.Optimize(g, p, 0, 63); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Optimize(g, p, 0, 63); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPExhaustiveSmall shows the exponential reference cost the DP
// avoids (ablation: DP vs exhaustive).
func BenchmarkDPExhaustiveSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := pipeline.RandomGraph(rng, 7, 1.5)
	p := pipeline.RandomPipeline(rng, 5, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Exhaustive(g, p, 0, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPGreedy is the greedy mapping ablation. The heuristic's
// myopia can strand it away from the destination, so the instance is
// chosen (by seed scan) from those it can actually solve.
func BenchmarkDPGreedy(b *testing.B) {
	var g *pipeline.Graph
	var p *pipeline.Pipeline
	for seed := int64(1); ; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g = pipeline.RandomGraph(rng, 50, 2)
		p = pipeline.RandomPipeline(rng, 8, false)
		if _, err := pipeline.Greedy(g, p, 0, 49); err == nil {
			break
		}
		if seed > 100 {
			b.Skip("no greedy-solvable instance found")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Greedy(g, p, 0, 49); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostModelCalibration measures the Section 4.4 preprocessing:
// case-probability estimation for Eq. 5 on a sampled dataset.
func BenchmarkCostModelCalibration(b *testing.B) {
	f := dataset.Generate(dataset.JetSpec.Scaled(8))
	blocks := grid.Decompose(f, 8)
	isos := cost.IsovalueSweep(f, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost.EstimateCaseProbs(f, cost.SampleBlocks(blocks, 4), isos)
	}
}

// BenchmarkEPBMeasurement times the Section 4.3 active bandwidth probe.
func BenchmarkEPBMeasurement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := netsim.New(int64(i + 1))
		a := n.AddNode("a", 1)
		c := n.AddNode("c", 1)
		l := n.Connect(a, c, netsim.LinkConfig{Bandwidth: 8 * netsim.MB, Delay: 20 * time.Millisecond})
		cost.MeasureEPB(l.AB, nil, 1)
	}
}

// BenchmarkMarchingCubesSerial extracts the Jet isosurface single-threaded.
func BenchmarkMarchingCubesSerial(b *testing.B) {
	f := dataset.Generate(dataset.JetSpec.Scaled(8))
	blocks := grid.Decompose(f, 8)
	iso := dataset.DefaultIsovalue(dataset.KindJet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marchingcubes.ExtractBlocks(f, blocks, iso, 1)
	}
}

// BenchmarkMarchingCubesParallel is the cluster-module ablation: the same
// extraction with the full worker pool.
func BenchmarkMarchingCubesParallel(b *testing.B) {
	f := dataset.Generate(dataset.JetSpec.Scaled(8))
	blocks := grid.Decompose(f, 8)
	iso := dataset.DefaultIsovalue(dataset.KindJet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marchingcubes.ExtractBlocks(f, blocks, iso, 0)
	}
}

// BenchmarkBlockCulling is the octree block-size ablation at edge 4.
func BenchmarkBlockCullingEdge4(b *testing.B) {
	f := dataset.Generate(dataset.RageSpec.Scaled(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocks := grid.Decompose(f, 4)
		grid.ActiveBlocks(blocks, 0.5)
	}
}

// BenchmarkBlockCullingEdge16 is the same ablation at edge 16.
func BenchmarkBlockCullingEdge16(b *testing.B) {
	f := dataset.Generate(dataset.RageSpec.Scaled(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocks := grid.Decompose(f, 16)
		grid.ActiveBlocks(blocks, 0.5)
	}
}

// BenchmarkRaycast renders the Rage volume at 128x128.
func BenchmarkRaycast(b *testing.B) {
	f := dataset.Generate(dataset.RageSpec.Scaled(8))
	opt := raycast.DefaultOptions()
	opt.Width, opt.Height = 128, 128
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raycast.Render(f, opt)
	}
}

// BenchmarkStreamline traces a 6x6x6 seed grid through the Jet flow.
func BenchmarkStreamline(b *testing.B) {
	f := dataset.Generate(dataset.JetSpec.Scaled(8))
	vf := dataset.VelocityFromScalar(f)
	seeds := streamline.SeedGrid(vf, 6, 6, 6)
	opt := streamline.DefaultOptions()
	opt.Steps = 128
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamline.Trace(vf, seeds, opt)
	}
}

// BenchmarkSoftwareRender rasterizes the Jet isosurface at 256x256.
func BenchmarkSoftwareRender(b *testing.B) {
	f := dataset.Generate(dataset.JetSpec.Scaled(8))
	mesh := marchingcubes.Extract(f, dataset.DefaultIsovalue(dataset.KindJet))
	opt := render.DefaultOptions()
	opt.Width, opt.Height = 256, 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.Render(mesh, opt)
	}
}

// BenchmarkSodStep advances the steered solver one cycle on a 96^3/4 grid.
func BenchmarkSodStep(b *testing.B) {
	s := simengine.NewSod(96, 48, 48, simengine.DefaultSodParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// --- Frame-stage benchmarks ---
//
// The live service's per-frame data plane at N sessions x K viewers:
// sim step, isosurface extraction, rasterization, PNG encode, and the
// composed frame. All report allocs/op — the steady state must stay
// allocation-flat (guarded by the AllocsPerRun regression tests), and
// `ricsa-bench -bench-json` mirrors these ops into BENCH_pipeline.json so
// CI diffs them across PRs.

// frameBenchSim is the frame-stage workload: the default live-session Sod
// grid, run with serial sweeps so allocs/op reflects the data plane rather
// than goroutine spawns.
func frameBenchSim() *simengine.Sim {
	s := simengine.NewSod(64, 32, 32, simengine.DefaultSodParams())
	s.SetWorkers(1)
	return s
}

// BenchmarkFrameSimStep is one solver cycle with reused sweep scratch.
func BenchmarkFrameSimStep(b *testing.B) {
	s := frameBenchSim()
	s.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkMCubesExtract extracts the monitored isosurface into a reused
// mesh arena.
func BenchmarkMCubesExtract(b *testing.B) {
	s := frameBenchSim()
	for i := 0; i < 8; i++ {
		s.Step()
	}
	f := s.Density()
	var m viz.Mesh
	marchingcubes.ExtractInto(&m, f, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marchingcubes.ExtractInto(&m, f, 0.5)
	}
}

// BenchmarkRenderRaster rasterizes the extracted surface into reused
// framebuffer/z-buffer/projection scratch at the live session's 512x512.
func BenchmarkRenderRaster(b *testing.B) {
	s := frameBenchSim()
	for i := 0; i < 8; i++ {
		s.Step()
	}
	f := s.Density()
	var sc viz.FrameScratch
	marchingcubes.ExtractInto(&sc.Mesh, f, 0.5)
	opt := render.DefaultOptions()
	opt.Width, opt.Height = 512, 512
	opt.Workers = 1
	render.RenderWith(&sc, &sc.Mesh, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.RenderWith(&sc, &sc.Mesh, opt)
	}
}

// BenchmarkPNGEncode encodes the framebuffer into a reused buffer with the
// pooled encoder — no framebuffer copy, no fresh output slice.
func BenchmarkPNGEncode(b *testing.B) {
	s := frameBenchSim()
	for i := 0; i < 8; i++ {
		s.Step()
	}
	img, err := steering.RenderDataset(s.Density(), steering.DefaultRequest(), 512, 512)
	if err != nil {
		b.Fatal(err)
	}
	var sc viz.FrameScratch
	if err := img.EncodePNG(&sc.Enc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Enc.Reset()
		if err := img.EncodePNG(&sc.Enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTierEncodeDownscale box-filters the 512x512 framebuffer to the
// quarter rung and PNG-encodes it into the encoder's reused buffer — the
// per-frame cost of serving one reduced-tier viewer demand.
func BenchmarkTierEncodeDownscale(b *testing.B) {
	s := frameBenchSim()
	for i := 0; i < 8; i++ {
		s.Step()
	}
	img, err := steering.RenderDataset(s.Density(), steering.DefaultRequest(), 512, 512)
	if err != nil {
		b.Fatal(err)
	}
	var enc viz.TierEncoder
	var buf bytes.Buffer
	if err := enc.EncodeDownscaled(img, 4, &buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.EncodeDownscaled(img, 4, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTierEncodeDelta alternates two adjacent frames through the
// keyframe-relative delta encoder: the first repeats the keyframe content
// (empty delta), the second carries a dirty region patch — the two warm
// paths a delta viewer's session pays every frame.
func BenchmarkTierEncodeDelta(b *testing.B) {
	s := frameBenchSim()
	for i := 0; i < 8; i++ {
		s.Step()
	}
	img1, err := steering.RenderDataset(s.Density(), steering.DefaultRequest(), 512, 512)
	if err != nil {
		b.Fatal(err)
	}
	s.Step()
	img2, err := steering.RenderDataset(s.Density(), steering.DefaultRequest(), 512, 512)
	if err != nil {
		b.Fatal(err)
	}
	var enc viz.TierEncoder
	var buf bytes.Buffer
	if kind, err := enc.EncodeDelta(img1, false, &buf); err != nil || kind != viz.DeltaKey {
		b.Fatalf("warm-up keyframe: kind=%v err=%v", kind, err)
	}
	if _, err := enc.EncodeDelta(img2, false, &buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := img1
		if i&1 == 1 {
			frame = img2
		}
		if _, err := enc.EncodeDelta(frame, false, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameProduceTotal is the composed steady-state frame: solver
// step, snapshot into a reused field, extract+render through shared scratch,
// and PNG-encode into the reused buffer — the warm path a live session's
// producer goroutine runs every FramePeriod.
func BenchmarkFrameProduceTotal(b *testing.B) {
	s := frameBenchSim()
	req := steering.DefaultRequest()
	var sc viz.FrameScratch
	var field *grid.ScalarField
	frame := func() {
		s.Step()
		field = s.DensityInto(field)
		img, err := steering.RenderDatasetInto(&sc, field, req, 512, 512)
		if err != nil {
			b.Fatal(err)
		}
		sc.Enc.Reset()
		if err := img.EncodePNG(&sc.Enc); err != nil {
			b.Fatal(err)
		}
	}
	frame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
}

// frameBenchSimPar is the pooled counterpart of frameBenchSim: sweeps fan
// out over the given pool's queue, the mode a live ManagedSession runs in.
func frameBenchSimPar(pool *fcp.Pool) (*simengine.Sim, *fcp.Queue) {
	s := simengine.NewSod(64, 32, 32, simengine.DefaultSodParams())
	q := pool.NewQueue()
	s.SetWorkers(0)
	s.SetQueue(q)
	return s, q
}

// BenchmarkFrameSimStepPar is one solver cycle with pencil sweeps through
// the shared frame-compute pool (results bit-identical to the inline path).
func BenchmarkFrameSimStepPar(b *testing.B) {
	s, _ := frameBenchSimPar(fcp.Default())
	s.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkMCubesExtractPar is the block-parallel extraction of the same
// surface through the pool, into reused per-block mesh arenas.
func BenchmarkMCubesExtractPar(b *testing.B) {
	s := frameBenchSim()
	for i := 0; i < 8; i++ {
		s.Step()
	}
	f := s.Density()
	blocks := grid.Decompose(f, 8)
	var m viz.Mesh
	marchingcubes.ExtractBlocksInto(&m, f, blocks, 0.5, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marchingcubes.ExtractBlocksInto(&m, f, blocks, 0.5, 0)
	}
}

// BenchmarkMCubesExtractROI is the dirty-block cached extraction in its
// steady state: the field is unchanged between iterations, so every block's
// stamp matches and zero blocks re-extract — the cache's best case, and the
// common one for a slowly evolving region of interest.
func BenchmarkMCubesExtractROI(b *testing.B) {
	s := frameBenchSim()
	for i := 0; i < 8; i++ {
		s.Step()
	}
	f := s.Density()
	var cache viz.BlockMeshCache
	var m viz.Mesh
	marchingcubes.ExtractROIInto(&m, &cache, f, 8, 0.5, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marchingcubes.ExtractROIInto(&m, &cache, f, 8, 0.5, nil)
	}
}

// BenchmarkFrameProduceTotalPar is the composed frame on the pooled path a
// live ManagedSession runs: pooled sim step, snapshot, dirty-block ROI
// extraction + render, and PNG encode.
func BenchmarkFrameProduceTotalPar(b *testing.B) {
	s, q := frameBenchSimPar(fcp.Default())
	req := steering.DefaultRequest()
	var sc viz.FrameScratch
	var roi viz.BlockMeshCache
	var field *grid.ScalarField
	frame := func() {
		s.Step()
		field = s.DensityInto(field)
		img, err := steering.RenderDatasetROI(&sc, &roi, q, field, req, 512, 512)
		if err != nil {
			b.Fatal(err)
		}
		sc.Enc.Reset()
		if err := img.EncodePNG(&sc.Enc); err != nil {
			b.Fatal(err)
		}
	}
	frame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
}

// BenchmarkTelemetryRecord is the per-frame observability overhead: one
// fully populated FrameRecord through counters + batching, with a sink
// that retains nothing (the production shape — drop, never buffer). Must
// stay 0 allocs/op warm; `ricsa-bench -bench-diff` gates the ns/op.
func BenchmarkTelemetryRecord(b *testing.B) {
	col := telemetry.NewCollector(telemetry.SinkFunc(func([]telemetry.FrameRecord) {}), 0)
	rec := telemetry.FrameRecord{
		Session: "s1", SimNS: 100, RenderNS: 200, EncodeNS: 50,
		ProduceNS: 400, QueueWaitNS: 10, Branches: 2, Rendered: true,
	}
	rec.Delivery[0], rec.Delivery[1] = 300, 900
	col.RecordFrame(&rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Seq = uint64(i)
		col.RecordFrame(&rec)
	}
}

// BenchmarkBulkTransfer moves 16 MB over an emulated 10 MB/s channel.
func BenchmarkBulkTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := netsim.New(int64(i + 1))
		a := n.AddNode("a", 1)
		c := n.AddNode("c", 1)
		l := n.Connect(a, c, netsim.LinkConfig{Bandwidth: 10 * netsim.MB, Delay: 10 * time.Millisecond})
		netsim.MeasureBulk(l.AB, 16*netsim.MB)
	}
}

// BenchmarkSteeringSession wires a full monitoring session (measure,
// optimize, three frames with one steering command) on the testbed.
func BenchmarkSteeringSession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := netsim.DefaultTestbed()
		cfg.Loss = 0
		cfg.CrossMean = 0
		d := steering.NewDeployment(netsim.Testbed(int64(i+1), cfg))
		d.Measure([]int{512 << 10, 2 << 20}, 1)
		req := steering.DefaultRequest()
		req.NX, req.NY, req.NZ = 32, 16, 16
		req.StepsPerFrame = 1
		s, err := steering.NewSession(d, netsim.ORNL, netsim.ORNL, netsim.LSU, netsim.GaTech, req)
		if err != nil {
			b.Fatal(err)
		}
		p := simengine.DefaultSodParams()
		p.LeftPressure = 5
		err = s.RunFrames(3, func(frame int) *simengine.Params {
			if frame == 0 {
				return &p
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
