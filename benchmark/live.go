package main

import (
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// procSample is a reading of what the process has cost so far.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
	gcPause time.Duration
}

func readProc() procSample {
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{cpu: cpu, mallocs: ms.Mallocs, gcPause: time.Duration(ms.PauseTotalNs)}
}

// procLayer fills the proc.* attribution metrics from two samples around
// a window in which ops operations completed.
func procLayer(layer map[string]float64, before, after procSample, ops float64, heapPeak uint64) {
	layer["proc.cpu_ms_per_op"] = ratio(ms(after.cpu-before.cpu), ops)
	layer["proc.allocs_per_op"] = ratio(float64(after.mallocs-before.mallocs), ops)
	layer["proc.gc_pause_ms_total"] = ms(after.gcPause - before.gcPause)
	layer["proc.heap_inuse_peak_mib"] = float64(heapPeak) / (1 << 20)
}

// heapNow reads the bytes of live and unswept heap objects without
// stopping the world.
func heapNow() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// waitWindow sleeps until the window's end. On a traced run it also
// samples the heap four times a second and returns the peak.
func waitWindow(end time.Time, traced bool) (heapPeak uint64) {
	for {
		left := time.Until(end)
		if left <= 0 {
			return heapPeak
		}
		if left > 250*time.Millisecond {
			left = 250 * time.Millisecond
		}
		time.Sleep(left)
		if traced {
			heapPeak = max(heapPeak, heapNow())
		}
	}
}

// counterDelta is after[name]-before[name] of two /metrics scrapes.
func counterDelta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// checkLive reconciles the server's session counters with the sessions the
// workload holds: admitted minus destroyed, and the live gauge.
func checkLive(out *outcome, after map[string]float64, want float64) {
	if live := after["ricsa_sessions_admitted_total"] - after["ricsa_sessions_destroyed_total"]; live != want || after["ricsa_sessions_live"] != want {
		out.violate("sessions admitted-destroyed = %g, live gauge %g, want %g", live, after["ricsa_sessions_live"], want)
	}
}

// frameLayer fills the per-frame layer metrics of a live workload from
// the sink's records of the window and the /metrics deltas across it.
func frameLayer(layer map[string]float64, recs []sunkFrame, before, after map[string]float64) {
	var sim, render, encode, produce, queue, pool, rendered float64
	for _, r := range recs {
		sim += float64(r.SimNS)
		render += float64(r.RenderNS)
		encode += float64(r.EncodeNS)
		produce += float64(r.ProduceNS)
		queue += float64(r.QueueWaitNS)
		pool += float64(r.PoolWaitNS)
		if r.Rendered {
			rendered++
		}
	}
	n := float64(len(recs))
	const nsPerMS = 1e6
	layer["simengine.sim_ms_per_frame"] = ratio(sim, n) / nsPerMS
	layer["steering.render_ms_per_frame"] = ratio(render, rendered) / nsPerMS
	layer["steering.encode_ms_per_frame"] = ratio(encode, rendered) / nsPerMS
	layer["steering.produce_ms_per_frame"] = ratio(produce, n) / nsPerMS
	// The residual ROADMAP asks to see: what produce spent outside its
	// three timed stages (locks, CM consultation, publish, telemetry).
	layer["steering.produce_unattributed_ms"] = ratio(produce-sim-render-encode, n) / nsPerMS
	layer["steering.queue_wait_ms_per_frame"] = ratio(queue, n) / nsPerMS
	layer["fcp.pool_wait_ms_per_frame"] = ratio(pool, n) / nsPerMS

	layer["steering.frames_late_share"] = ratio(
		counterDelta(before, after, "ricsa_frames_late_total"),
		counterDelta(before, after, "ricsa_frames_produced_total"))
	// Full-tier encodes the producer did not make were rendered by
	// waitFrame's unpooled path, because no poll was in flight at publish.
	full := counterDelta(before, after, "ricsa_tier_encodes_full_total")
	layer["steering.lazy_render_share"] = ratio(full-counterDelta(before, after, "ricsa_frames_rendered_total"), full)
	reused := counterDelta(before, after, "ricsa_blocks_reused_total")
	layer["marchingcubes.blocks_reused_share"] = ratio(reused, reused+counterDelta(before, after, "ricsa_blocks_extracted_total"))
}

// traceFrame records one produced frame's spans: steering.produce with its
// three timed stages and the unattributed residual laid end to end (the
// record carries durations, not start times), under the given parent.
func traceFrame(tr *tracer, trace string, parent int, r sunkFrame) {
	start := r.arrival.Add(-time.Duration(r.ProduceNS))
	tags := map[string]string{"session": r.Session, "seq": strconv.FormatUint(r.Seq, 10)}
	if !r.Rendered {
		tags["lazy"] = "true"
	}
	id := tr.add(trace, parent, "steering.produce", start, r.arrival, tags)
	at := start
	for _, st := range []struct {
		name string
		ns   int64
	}{
		{"simengine.sim", r.SimNS},
		{"steering.render", r.RenderNS},
		{"steering.encode", r.EncodeNS},
		{"steering.produce.unattributed", r.ProduceNS - r.SimNS - r.RenderNS - r.EncodeNS},
	} {
		end := at.Add(time.Duration(st.ns))
		tr.add(trace, id, st.name, at, end, nil)
		at = end
	}
}
