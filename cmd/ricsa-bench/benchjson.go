package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"ricsa/internal/cost"
	"ricsa/internal/fcp"
	"ricsa/internal/grid"
	"ricsa/internal/pipeline"
	"ricsa/internal/simengine"
	"ricsa/internal/steering"
	"ricsa/internal/telemetry"
	"ricsa/internal/transport/fec"
	"ricsa/internal/viz"
	"ricsa/internal/viz/marchingcubes"
	"ricsa/internal/viz/render"
)

// This file is the machine-readable perf artifact: -bench-json runs the
// control-plane (pipeline optimizer) and data-plane (frame stage)
// micro-benchmarks under testing.Benchmark and writes BENCH_pipeline.json,
// so the repo's perf trajectory is a diffable file across PRs instead of
// living only in `go test -bench` terminal output. The frame stages measure
// the steady-state reuse paths — warm scratch, pooled encoder — because that
// is what a live session pays per frame; allocs/op is the regression signal
// there as much as ns/op.

// BenchRecord is one micro-benchmark row.
type BenchRecord struct {
	Op          string  `json:"op"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// benchRow pairs an op name with its benchmark body.
type benchRow struct {
	op string
	fn func(b *testing.B)
}

// benchRows is the one definition of every perf row, in artifact order:
// -bench-json runs it under testing.Benchmark and BenchmarkRows under
// `go test -bench`, so both measure the same fixtures.
func benchRows() []benchRow {
	// Control plane: the pipeline optimizer on one 64-node instance whose
	// graph carries a measurement-epoch stamp, as every
	// Deployment.Measure-produced graph does.
	rng := rand.New(rand.NewSource(1))
	g := pipeline.RandomGraph(rng, 64, 3)
	g.Rev = pipeline.NextGraphRev()
	p := pipeline.RandomPipeline(rng, 8, false)
	cache := pipeline.NewCache(0)
	if _, err := cache.Optimize(g, p, 0, 63); err != nil {
		panic(fmt.Sprintf("bench warm-up cache: %v", err))
	}
	ups := []pipeline.EdgeUpdate{{From: 0, To: g.Adj[0][0].To, Bandwidth: 5e6, Delay: 0.01}}

	// Data plane: the per-frame stages of a live monitoring session (sim
	// step, isosurface extraction, rasterization, PNG encode, and the
	// composed frame). Each stage is measured twice — inline (workers = 1,
	// the allocation-flat baseline) and through the shared frame-compute
	// pool (_par rows) — plus the dirty-block ROI extraction path, so the
	// artifact tracks both execution modes.
	sim := simengine.NewSod(64, 32, 32, simengine.DefaultSodParams())
	sim.SetWorkers(1)
	for i := 0; i < 8; i++ {
		sim.Step()
	}
	field := sim.Density()
	req := steering.DefaultRequest()

	// Pooled counterparts: a sim whose sweeps fan out over the process
	// default pool, block-parallel extraction, and the ROI cache path.
	queue := fcp.Default().NewQueue()
	simPar := simengine.NewSod(64, 32, 32, simengine.DefaultSodParams())
	simPar.SetWorkers(0)
	simPar.SetQueue(queue)
	for i := 0; i < 8; i++ {
		simPar.Step()
	}
	// The non-symmetric problem: a bow shock's pencils are rarely uniform
	// or repeated, so this row shows what the solver's short cuts cost
	// where they seldom fire.
	simBow := simengine.NewBowShock(64, 32, 32, simengine.DefaultBowShockParams())
	simBow.SetWorkers(1)
	for i := 0; i < 8; i++ {
		simBow.Step()
	}
	blocks := grid.Decompose(field, 8)
	var blockMesh viz.Mesh
	marchingcubes.ExtractBlocksInto(&blockMesh, field, blocks, req.Isovalue, 0)
	var roiCache viz.BlockMeshCache
	var roiMesh viz.Mesh
	marchingcubes.ExtractROIInto(&roiMesh, &roiCache, field, 8, req.Isovalue, queue)
	var produceScPar viz.FrameScratch
	var produceRoi viz.BlockMeshCache
	var produceFieldPar *grid.ScalarField

	var extractMesh viz.Mesh
	marchingcubes.ExtractInto(&extractMesh, field, req.Isovalue)

	var renderSc viz.FrameScratch
	marchingcubes.ExtractInto(&renderSc.Mesh, field, req.Isovalue)
	ropt := render.DefaultOptions()
	ropt.Width, ropt.Height = 512, 512
	ropt.Workers = 1
	img := render.RenderWith(&renderSc, &renderSc.Mesh, ropt)

	var encSc viz.FrameScratch
	if err := img.EncodePNG(&encSc.Enc); err != nil {
		panic(fmt.Sprintf("bench warm-up encode: %v", err))
	}

	var produceSc viz.FrameScratch
	var produceField *grid.ScalarField

	// Tier ladder rows: the quarter-rung downscale encode and the
	// keyframe-relative delta encode. The delta row alternates a repeat of
	// the keyframe content (empty delta) with the adjacent solver frame
	// (region patch), the two warm paths a delta viewer's session pays.
	simTier := simengine.NewSod(64, 32, 32, simengine.DefaultSodParams())
	simTier.SetWorkers(1)
	for i := 0; i < 9; i++ {
		simTier.Step()
	}
	var tierSc viz.FrameScratch
	marchingcubes.ExtractInto(&tierSc.Mesh, simTier.Density(), req.Isovalue)
	imgNext := render.RenderWith(&tierSc, &tierSc.Mesh, ropt)
	var tierEnc viz.TierEncoder
	var tierBuf bytes.Buffer
	if err := tierEnc.EncodeDownscaled(img, 4, &tierBuf); err != nil {
		panic(fmt.Sprintf("bench warm-up downscale encode: %v", err))
	}
	if kind, err := tierEnc.EncodeDelta(img, false, &tierBuf); err != nil || kind != viz.DeltaKey {
		panic(fmt.Sprintf("bench warm-up delta keyframe: kind=%v err=%v", kind, err))
	}
	if _, err := tierEnc.EncodeDelta(imgNext, false, &tierBuf); err != nil {
		panic(fmt.Sprintf("bench warm-up delta patch: %v", err))
	}

	// The view frame a view steer triggers: the unadvanced state
	// re-snapshotted and re-rendered under a new camera (zoom toggled
	// 1 <-> 0.25, as steer-loop steers) through the session's dirty-block
	// cache, on a one-slot pool — steer-loop's inline producer. No row
	// steps simTier, so every block is reused after the first frame.
	viewQueue := fcp.NewPool(1).NewQueue()
	viewReq := req
	var viewSc viz.FrameScratch
	var viewRoi viz.BlockMeshCache
	var viewField *grid.ScalarField

	// The observability tax per frame: counters + batch append through the
	// collector with a no-op sink (the production shape). Warm path must be
	// allocation-flat — the AllocsPerRun test in internal/telemetry pins 0.
	col := telemetry.NewCollector(telemetry.SinkFunc(func([]telemetry.FrameRecord) {}), 0)
	rec := telemetry.FrameRecord{
		Session: "s1", SimNS: 100, RenderNS: 200, EncodeNS: 50,
		ProduceNS: 400, QueueWaitNS: 10, Branches: 2, Rendered: true,
	}
	rec.Delivery[0], rec.Delivery[1] = 300, 900
	col.RecordFrame(&rec)

	// Transport: fountain-coding one maximum-shape frame generation (128
	// source blocks of a 1 MiB frame plus a 12.5% repair budget) and
	// decoding it with a worst-case-for-the-budget loss pattern (every
	// repair block consumed). Both rows reuse warm codec state, the shape a
	// per-frame sender/receiver pays — allocs/op is the regression signal,
	// pinned at zero by the codec's property tests.
	frame := make([]byte, 1<<20)
	for i := range frame {
		frame[i] = byte(i * 2654435761)
	}
	k := fec.SourceBlocksFor(len(frame))
	nRepair := fec.RepairBlocksFor(k, 0.125)
	enc := fec.NewEncoder()
	if err := enc.Encode(frame, k, nRepair); err != nil {
		panic(fmt.Sprintf("bench warm-up fec encode: %v", err))
	}
	dec := fec.NewDecoder()

	return []benchRow{
		{"optimize_dp_64node", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.Optimize(g, p, 0, 63); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"optimize_cached_64node", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cache.Optimize(g, p, 0, 63); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"optimize_tree_64node", func(b *testing.B) {
			// The tail is one module, so the four viewers must share a
			// neighbour to be served from one terminal: these do (node 29).
			dsts := []int{63, 31, 15, 55}
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.OptimizeMultiTiered(g, p, 0, dsts, cost.TierDelta); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"fingerprint_graph_stamped", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = g.Fingerprint()
			}
		}},
		{"fingerprint_pipeline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = p.Fingerprint()
			}
		}},
		{"apply_edge_updates_64node", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = g.ApplyEdgeUpdates(ups)
			}
		}},
		{"telemetry_record", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec.Seq = uint64(i)
				col.RecordFrame(&rec)
			}
		}},
		{"frame_sim_step", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		}},
		{"mcubes_extract", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				marchingcubes.ExtractInto(&extractMesh, field, req.Isovalue)
			}
		}},
		{"render_raster", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				render.RenderWith(&renderSc, &renderSc.Mesh, ropt)
			}
		}},
		{"png_encode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				encSc.Enc.Reset()
				if err := img.EncodePNG(&encSc.Enc); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"tier_encode_downscale", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := tierEnc.EncodeDownscaled(img, 4, &tierBuf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"tier_encode_delta", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cur := img
				if i&1 == 1 {
					cur = imgNext
				}
				if _, err := tierEnc.EncodeDelta(cur, false, &tierBuf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"frame_produce_total", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.Step()
				produceField = sim.DensityInto(produceField)
				out, err := steering.RenderDatasetInto(&produceSc, produceField, req, 512, 512)
				if err != nil {
					b.Fatal(err)
				}
				produceSc.Enc.Reset()
				if err := out.EncodePNG(&produceSc.Enc); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"frame_sim_step_par", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simPar.Step()
			}
		}},
		{"mcubes_extract_par", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				marchingcubes.ExtractBlocksInto(&blockMesh, field, blocks, req.Isovalue, 0)
			}
		}},
		// Steady state for the ROI path: the field has not changed since the
		// cache's last Plan, so every block's stamp matches and zero blocks
		// re-extract — the dirty-block win this artifact tracks.
		{"mcubes_extract_roi", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				marchingcubes.ExtractROIInto(&roiMesh, &roiCache, field, 8, req.Isovalue, queue)
			}
		}},
		{"frame_produce_total_par", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simPar.Step()
				produceFieldPar = simPar.DensityInto(produceFieldPar)
				out, err := steering.RenderDatasetROI(&produceScPar, &produceRoi, queue, produceFieldPar, req, 512, 512)
				if err != nil {
					b.Fatal(err)
				}
				produceScPar.Enc.Reset()
				if err := out.EncodePNG(&produceScPar.Enc); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"frame_produce_view", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				viewReq.Camera.Zoom = 1 - 0.75*float64(i&1)
				viewField = simTier.DensityInto(viewField)
				out, err := steering.RenderDatasetROI(&viewSc, &viewRoi, viewQueue, viewField, viewReq, 512, 512)
				if err != nil {
					b.Fatal(err)
				}
				viewSc.Enc.Reset()
				if err := out.EncodePNG(&viewSc.Enc); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"frame_sim_step_bowshock", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simBow.Step()
			}
		}},
		{"fec_encode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := enc.Encode(frame, k, nRepair); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"fec_decode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := dec.Reset(k, enc.BlockSize(), len(frame)); err != nil {
					b.Fatal(err)
				}
				// Lose the first nRepair source blocks: the decoder must
				// solve for every repair block it was provisioned.
				for s := nRepair; s < k; s++ {
					if err := dec.AddSource(s, enc.SourceBlock(s)); err != nil {
						b.Fatal(err)
					}
				}
				for j := 0; j < nRepair; j++ {
					if err := dec.AddRepair(j, enc.RepairBlock(j)); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := dec.Decode(); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

func writeBenchJSON(path string) error {
	rows := benchRows()
	records := make([]BenchRecord, 0, len(rows))
	for _, row := range rows {
		r := testing.Benchmark(row.fn)
		records = append(records, BenchRecord{
			Op:          row.op,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		})
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		return err
	}
	fmt.Printf("wrote %d pipeline benchmarks to %s\n", len(records), path)
	return nil
}
