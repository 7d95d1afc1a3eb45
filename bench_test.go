package ricsa

// One benchmark per evaluation artifact of the paper, plus ablation
// micro-benchmarks for the design choices called out in DESIGN.md. The
// experiment benchmarks run at reduced dataset scale so `go test -bench=.`
// completes quickly; cmd/ricsa-bench regenerates the full-scale tables.
// The perf rows CI gates (BENCH_pipeline.json) are defined once, in
// cmd/ricsa-bench's row table, and run there under `go test -bench Rows`.

import (
	"math/rand"
	"testing"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/dataset"
	"ricsa/internal/experiments"
	"ricsa/internal/grid"
	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
	"ricsa/internal/simengine"
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
	mn, mx := f.MinMax()
	isos := make([]float32, 5) // evenly spaced over the value range's interior
	for i := range isos {
		isos[i] = mn + float32(i+1)/6*(mx-mn)
	}
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
		cost.MeasureEPBBounded(l.AB, nil, 1, 0)
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
	mesh := &viz.Mesh{}
	marchingcubes.ExtractInto(mesh, f, dataset.DefaultIsovalue(dataset.KindJet))
	opt := render.DefaultOptions()
	opt.Width, opt.Height = 256, 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.RenderWith(nil, mesh, opt)
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
