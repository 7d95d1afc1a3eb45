package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/fcp"
	"ricsa/internal/grid"
	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
	"ricsa/internal/simengine"
	"ricsa/internal/steering"
	"ricsa/internal/telemetry"
	"ricsa/internal/transport/fec"
	"ricsa/internal/viz"
	"ricsa/internal/viz/marchingcubes"
	"ricsa/internal/viz/render"
	"ricsa/internal/webui"
)

// The micro pass is the second source of per-layer numbers: the benchmark
// calls each layer's public functions itself, on the inputs the workloads
// use (the default session's grid, request and frame size; the churn
// network), with a span around each call. It runs after the traced
// workload and fills the rows the sink and /metrics cannot split.

// microBudget is how long one row is sampled for.
const microBudget = 50 * time.Millisecond

// sample calls prep (untimed, may be nil) then fn (timed) until the
// budget is spent, at least five times, and returns the median call.
func sample(prep, fn func()) time.Duration {
	var calls []float64
	for begun := time.Now(); len(calls) < 5 || time.Since(begun) < microBudget; {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		calls = append(calls, float64(time.Since(t0)))
	}
	sort.Float64s(calls)
	return time.Duration(quantile(calls, 0.5))
}

// sampleBatch times n back-to-back calls per sample, for calls too short
// for the clock, and returns the median nanoseconds of one call.
func sampleBatch(n int, fn func()) float64 {
	d := sample(nil, func() {
		for i := 0; i < n; i++ {
			fn()
		}
	})
	return float64(d) / float64(n)
}

type noTask struct{}

func (noTask) Run(_, _ int) {}

// firstErr keeps the first error a micro row's calls return; the rows time
// calls that do not fail on these inputs, so one failure fails the run.
type firstErr struct{ err error }

func (f *firstErr) check(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

func microPass(layer map[string]float64) error {
	pool := fcp.NewPool(0)
	defer pool.Close()
	var failed firstErr
	failed.check(microFrame(layer, pool))
	failed.check(microService(layer, pool))
	failed.check(microControl(layer))
	failed.check(microTransport(layer))
	return failed.err
}

// microFrame times the frame data plane stage by stage on the default
// session's inputs: sod 64x32x32, isovalue 0.5, 512x512.
func microFrame(layer map[string]float64, pool *fcp.Pool) error {
	var failed firstErr
	req := steering.DefaultRequest()
	newSim := func(bow, inline bool) *simengine.Sim {
		var s *simengine.Sim
		if bow {
			s = simengine.NewBowShock(req.NX, req.NY, req.NZ, simengine.DefaultBowShockParams())
		} else {
			s = simengine.NewSod(req.NX, req.NY, req.NZ, simengine.DefaultSodParams())
		}
		if inline {
			s.SetWorkers(1)
		} else {
			s.SetQueue(pool.NewQueue())
		}
		for i := 0; i < 8; i++ {
			s.Step()
		}
		return s
	}
	sim := newSim(false, false)
	step := sample(nil, func() { sim.Step() })
	layer["simengine.step_ms"] = ms(step)
	layer["simengine.mcells_per_s"] = float64(req.NX*req.NY*req.NZ) / step.Seconds() / 1e6
	inline := newSim(false, true)
	layer["simengine.step_inline_ms"] = ms(sample(nil, func() { inline.Step() }))
	bow := newSim(true, false)
	layer["simengine.step_bowshock_ms"] = ms(sample(nil, func() { bow.Step() }))
	var field *grid.ScalarField
	layer["simengine.snapshot_ms"] = ms(sample(nil, func() { field = sim.DensityInto(field) }))

	var sc viz.FrameScratch
	layer["marchingcubes.extract_full_ms"] = ms(sample(nil, func() { marchingcubes.ExtractInto(&sc.Mesh, field, req.Isovalue) }))
	layer["marchingcubes.triangles"] = float64(sc.Mesh.TriangleCount())
	// The dirty-block path on a field that moves between calls, as it does
	// between a live session's frames.
	var roi viz.BlockMeshCache
	var roiMesh viz.Mesh
	queue := pool.NewQueue()
	layer["marchingcubes.extract_roi_ms"] = ms(sample(
		func() {
			for i := 0; i < req.StepsPerFrame; i++ {
				sim.Step()
			}
			field = sim.DensityInto(field)
		},
		func() { marchingcubes.ExtractROIInto(&roiMesh, &roi, field, req.BlockEdge, req.Isovalue, queue) }))

	marchingcubes.ExtractInto(&sc.Mesh, field, req.Isovalue)
	opt := render.DefaultOptions()
	opt.Width, opt.Height, opt.Camera = frameEdge, frameEdge, req.Camera
	layer["render.raster_ms"] = ms(sample(nil, func() { render.RenderWith(&sc, &sc.Mesh, opt) }))
	for _, m := range []struct{ method, metric string }{
		{"raycast", "raycast.render_ms"},
		{"streamline", "streamline.render_ms"},
	} {
		mreq := req
		mreq.Method = m.method
		var msc viz.FrameScratch
		layer[m.metric] = ms(sample(nil, func() {
			_, err := steering.RenderDatasetInto(&msc, field, mreq, frameEdge, frameEdge)
			failed.check(err)
		}))
	}

	// Two adjacent frames of the monitored surface feed the encoders.
	frames := [2]*viz.Image{}
	for i := range frames {
		sim.Step()
		field = sim.DensityInto(field)
		img, err := steering.RenderDataset(field, req, frameEdge, frameEdge)
		if err != nil {
			return err
		}
		frames[i] = img
	}
	var full, half, quarter, delta bytes.Buffer
	layer["viz.png_encode_ms"] = ms(sample(nil, func() { full.Reset(); failed.check(frames[0].EncodePNG(&full)) }))
	var encHalf, encQuarter, encDelta viz.TierEncoder
	layer["viz.tier_half_ms"] = ms(sample(nil, func() { failed.check(encHalf.EncodeDownscaled(frames[0], 2, &half)) }))
	layer["viz.tier_quarter_ms"] = ms(sample(nil, func() { failed.check(encQuarter.EncodeDownscaled(frames[0], 4, &quarter)) }))
	// Keyframe on the first frame, then region patches of the second.
	_, err := encDelta.EncodeDelta(frames[0], false, &delta)
	failed.check(err)
	layer["viz.tier_delta_ms"] = ms(sample(nil, func() {
		_, err := encDelta.EncodeDelta(frames[1], false, &delta)
		failed.check(err)
	}))
	// The measured twins of cost.TierBytes' assumed 0.25 / 0.0625 / 0.125.
	layer["viz.bytes_full"] = float64(full.Len())
	layer["viz.bytes_ratio_half"] = ratio(float64(half.Len()), float64(full.Len()))
	layer["viz.bytes_ratio_quarter"] = ratio(float64(quarter.Len()), float64(full.Len()))
	layer["viz.bytes_ratio_delta"] = ratio(float64(delta.Len()), float64(full.Len()))

	layer["steering.analyze_dataset_ms"] = ms(sample(nil, func() {
		steering.AnalyzeDataset(field, req.Simulator, req.BlockEdge, req.Isovalue)
	}))
	layer["fcp.batch_overhead_us"] = us(sample(nil, func() { queue.Run(64, noTask{}) }))
	return failed.err
}

// microService times the session and web layers on one live session that
// always has a fresh frame: the control calls directly, the handlers into
// a recorder, and the same frame fetch over a loopback socket, whose
// excess over the handler is what the socket and the HTTP client cost.
func microService(layer map[string]float64, pool *fcp.Pool) error {
	var failed firstErr
	mgr := steering.NewSessionManager(steering.ManagerConfig{ComputePool: pool})
	defer mgr.Shutdown(context.Background())
	s, err := mgr.CreateTuned(steering.DefaultRequest(), mixFramePeriodMS*time.Millisecond, 0, 0)
	if err != nil {
		return err
	}
	// Presence, so the producer renders every frame.
	detach := s.Attach()
	defer detach()
	ctx := context.Background()
	v := s.AttachViewer()
	defer v.Close()
	wait := func() {
		_, _, err := v.Wait(ctx, 0)
		failed.check(err)
	}
	wait()
	layer["steering.wait_hit_us"] = sampleBatch(100, wait) / 1000
	layer["steering.attach_close_us"] = sampleBatch(100, func() { s.AttachViewer().Close() }) / 1000
	steer := map[string]float64{"yaw": 0.9}
	layer["steering.steer_call_us"] = sampleBatch(100, func() { failed.check(s.Steer(steer)) }) / 1000

	handler := webui.NewHub(mgr).Handler()
	base := "/sessions/" + s.ID + "/api/"
	serve := func(method, path, body string) func() {
		return func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				failed.check(fmt.Errorf("%s %s: status %d", method, path, rec.Code))
			}
		}
	}
	frameHandler := sampleBatch(20, serve(http.MethodGet, base+"frame?since=0", "")) / 1000
	layer["webui.frame_handler_us"] = frameHandler
	layer["webui.steer_handler_us"] = sampleBatch(20, serve(http.MethodPost, base+"steer", `{"yaw":0.9}`)) / 1000
	layer["webui.status_handler_us"] = sampleBatch(20, serve(http.MethodGet, base+"status", "")) / 1000
	layer["webui.metrics_handler_us"] = sampleBatch(20, serve(http.MethodGet, "/metrics", "")) / 1000

	srv := httptest.NewServer(handler)
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()
	loopback := sampleBatch(20, func() {
		_, _, err := c.fetchFrame(s.ID, 0, "")
		failed.check(err)
	}) / 1000
	layer["webui.socket_overhead_us"] = loopback - frameHandler

	col := telemetry.NewCollector(telemetry.SinkFunc(func([]telemetry.FrameRecord) {}), 0)
	rec := telemetry.FrameRecord{Session: "s1", SimNS: 100, RenderNS: 200, EncodeNS: 50, ProduceNS: 400, Branches: 1, Rendered: true}
	layer["telemetry.record_ns"] = sampleBatch(1000, func() { col.RecordFrame(&rec) })
	var exposition bytes.Buffer
	layer["telemetry.exposition_us"] = us(sample(nil, func() { exposition.Reset(); col.WritePrometheus(&exposition) }))
	return failed.err
}

// microControl times the control plane on the churn workload's network
// and sessions, generated from a fixed seed.
func microControl(layer map[string]float64) error {
	var failed firstErr
	rig, err := setupChurn(runConfig{seed: 1})
	if err != nil {
		return err
	}
	layer["cm.measure_all_ms"] = ms(sample(nil, rig.mgr.MeasureAll))
	g := rig.mgr.Graph()
	var single, multi churnSession
	for _, s := range rig.sessions {
		if len(s.dsts) == 1 {
			single = s
		} else {
			multi = s
		}
	}
	src, dst := g.NodeIndex(single.src), g.NodeIndex(single.dsts[0])
	layer["pipeline.dp_single_us"] = us(sample(nil, func() {
		_, err := pipeline.Optimize(g, single.pipe, src, dst)
		failed.check(err)
	}))
	msrc := g.NodeIndex(multi.src)
	mdsts := make([]int, len(multi.dsts))
	for i, d := range multi.dsts {
		mdsts[i] = g.NodeIndex(d)
	}
	layer["pipeline.dp_multi_tiered_us"] = us(sample(nil, func() {
		_, err := pipeline.OptimizeMultiTiered(g, multi.pipe, msrc, mdsts, cost.TierDelta)
		failed.check(err)
	}))
	e := g.Adj[0][0]
	ups := []pipeline.EdgeUpdate{{From: 0, To: e.To, Bandwidth: e.Bandwidth / 2, Delay: e.Delay, Loss: e.Loss, LossConf: e.LossConf}}
	layer["pipeline.apply_edge_updates_us"] = us(sample(nil, func() { g.ApplyEdgeUpdates(ups) }))
	layer["pipeline.fingerprint_ns"] = sampleBatch(1000, func() { single.pipe.Fingerprint() })
	layer["cost.delivery_eval_ns"] = sampleBatch(1000, func() {
		cost.DeliverySeconds(cost.TransportAuto, 1<<20, e.Bandwidth, e.Delay, 0.005, 0.8)
	})

	net := netsim.New(1)
	a, b := net.AddNode("a", 1), net.AddNode("b", 1)
	link := net.Connect(a, b, netsim.LinkConfig{Bandwidth: 10 * netsim.MB, Delay: 10 * time.Millisecond})
	layer["netsim.measure_bulk_us"] = us(sample(nil, func() { netsim.MeasureBulk(link.AB, 1<<20) }))
	return failed.err
}

// microTransport times fountain-coding one 1 MiB frame with a 12.5 %
// repair budget and decoding it with every repair block needed. No live
// path reaches the codec yet; the rows are the baseline for the day one
// does.
func microTransport(layer map[string]float64) error {
	var failed firstErr
	frame := make([]byte, 1<<20)
	for i := range frame {
		frame[i] = byte(i * 2654435761)
	}
	k := fec.SourceBlocksFor(len(frame))
	nRepair := fec.RepairBlocksFor(k, 0.125)
	enc, dec := fec.NewEncoder(), fec.NewDecoder()
	layer["transport.fec_encode_ms_per_mib"] = ms(sample(nil, func() { failed.check(enc.Encode(frame, k, nRepair)) }))
	layer["transport.fec_decode_ms_per_mib"] = ms(sample(nil, func() {
		failed.check(dec.Reset(k, enc.BlockSize(), len(frame)))
		// Lose the first nRepair source blocks, so the decoder must solve
		// for every repair block it was provisioned.
		for s := nRepair; s < k; s++ {
			failed.check(dec.AddSource(s, enc.SourceBlock(s)))
		}
		for j := 0; j < nRepair; j++ {
			failed.check(dec.AddRepair(j, enc.RepairBlock(j)))
		}
		_, err := dec.Decode()
		failed.check(err)
	}))
	return failed.err
}
