package main

// spec declares one metric: its name, unit and better direction, and for
// an end-to-end metric the share of the parent's median by which it may
// get worse. BENCHMARK.json carries the same tables; the smoke test holds
// the two together.
type spec struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the system sees, defined per workload:
//
//	steer-loop        latency: steer due -> viewer has the first frame showing it
//	                  throughput: frames delivered to the viewer
//	session-saturate  latency: time between a session's frames, over the four isosurface sessions
//	                  throughput: frames rendered by all six sessions
//	viewer-mix        latency: since=0 frame fetch, request written -> body read
//	                  throughput: fetches completed on connection 1
//	cm-churn          latency: one epoch (probes, gated re-stamp, 256 consultations)
//	                  throughput: consultations per second of epoch time
var endToEnd = []spec{
	{"latency_p50_ms", "ms", "lower", 0.15},
	{"latency_p90_ms", "ms", "lower", 0.15},
	{"throughput_per_s", "1/s", "higher", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger under them; layer names are the repo's packages.
// A workload that bypasses a layer reports 0 for it.
var perLayer = []spec{
	{"simengine.step_ms", "ms", "lower", 0},
	{"simengine.step_inline_ms", "ms", "lower", 0},
	{"simengine.step_bowshock_ms", "ms", "lower", 0},
	{"simengine.snapshot_ms", "ms", "lower", 0},
	{"simengine.mcells_per_s", "Mcell/s", "higher", 0},
	{"simengine.sim_ms_per_frame", "ms", "lower", 0},
	{"marchingcubes.extract_full_ms", "ms", "lower", 0},
	{"marchingcubes.extract_roi_ms", "ms", "lower", 0},
	{"marchingcubes.triangles", "count", "lower", 0},
	{"marchingcubes.blocks_reused_share", "ratio", "higher", 0},
	{"render.raster_ms", "ms", "lower", 0},
	{"raycast.render_ms", "ms", "lower", 0},
	{"streamline.render_ms", "ms", "lower", 0},
	{"viz.png_encode_ms", "ms", "lower", 0},
	{"viz.tier_half_ms", "ms", "lower", 0},
	{"viz.tier_quarter_ms", "ms", "lower", 0},
	{"viz.tier_delta_ms", "ms", "lower", 0},
	{"viz.bytes_full", "B", "lower", 0},
	{"viz.bytes_ratio_half", "ratio", "lower", 0},
	{"viz.bytes_ratio_quarter", "ratio", "lower", 0},
	{"viz.bytes_ratio_delta", "ratio", "lower", 0},
	{"steering.render_ms_per_frame", "ms", "lower", 0},
	{"steering.encode_ms_per_frame", "ms", "lower", 0},
	{"steering.produce_ms_per_frame", "ms", "lower", 0},
	{"steering.produce_unattributed_ms", "ms", "lower", 0},
	{"steering.queue_wait_ms_per_frame", "ms", "lower", 0},
	{"steering.frames_late_share", "ratio", "lower", 0},
	{"steering.lazy_render_share", "ratio", "lower", 0},
	{"steering.analyze_dataset_ms", "ms", "lower", 0},
	{"steering.steer_call_us", "us", "lower", 0},
	{"steering.wait_hit_us", "us", "lower", 0},
	{"steering.attach_close_us", "us", "lower", 0},
	{"fcp.pool_wait_ms_per_frame", "ms", "lower", 0},
	{"fcp.batch_overhead_us", "us", "lower", 0},
	{"fcp.fairness_min_over_max", "ratio", "higher", 0},
	{"webui.frame_handler_us", "us", "lower", 0},
	{"webui.steer_handler_us", "us", "lower", 0},
	{"webui.status_handler_us", "us", "lower", 0},
	{"webui.metrics_handler_us", "us", "lower", 0},
	{"webui.socket_overhead_us", "us", "lower", 0},
	{"webui.frame_fetch_p99_us", "us", "lower", 0},
	{"webui.deliver_ms", "ms", "lower", 0},
	{"webui.steer_post_p50_us", "us", "lower", 0},
	{"webui.session_first_frame_p50_ms", "ms", "lower", 0},
	{"webui.bytes_per_frame", "B", "lower", 0},
	{"telemetry.record_ns", "ns", "lower", 0},
	{"telemetry.exposition_us", "us", "lower", 0},
	{"cm.measure_all_ms", "ms", "lower", 0},
	{"cm.probe_tick_us", "us", "lower", 0},
	{"cm.optimize_hit_us", "us", "lower", 0},
	{"cm.optimize_miss_us", "us", "lower", 0},
	{"cm.restamp_share", "ratio", "lower", 0},
	{"cm.probe_timeouts", "count", "lower", 0},
	{"cm.mapping_regret_p90", "ratio", "lower", 0},
	{"cm.prediction_error_p50", "ratio", "lower", 0},
	{"pipeline.dp_single_us", "us", "lower", 0},
	{"pipeline.dp_multi_tiered_us", "us", "lower", 0},
	{"pipeline.cache_hit_share", "ratio", "higher", 0},
	{"pipeline.apply_edge_updates_us", "us", "lower", 0},
	{"pipeline.fingerprint_ns", "ns", "lower", 0},
	{"netsim.measure_bulk_us", "us", "lower", 0},
	{"cost.fec_redundancy_mean", "ratio", "lower", 0},
	{"cost.delivery_eval_ns", "ns", "lower", 0},
	{"transport.fec_encode_ms_per_mib", "ms", "lower", 0},
	{"transport.fec_decode_ms_per_mib", "ms", "lower", 0},
	{"proc.cpu_ms_per_op", "ms", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.gc_pause_ms_total", "ms", "lower", 0},
	{"proc.heap_inuse_peak_mib", "MiB", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"trace.latency_p50_ms", "ms", "lower", 0},
	{"trace.throughput_per_s", "1/s", "higher", 0},
}
