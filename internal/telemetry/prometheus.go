// Prometheus text exposition for the flat counter registry. The format is
// the plain-text scrape format (# HELP / # TYPE / name value), written
// with nothing but fmt — no client library, in keeping with the module's
// zero-dependency rule. Scrapes are cold-path: allocation here is fine.
package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Gauge is an instantaneous value a scrape reports next to the cumulative
// counters — current live sessions, attached viewers, load fraction. The
// web layer supplies these; the collector itself only owns counters.
type Gauge struct {
	Name  string
	Help  string
	Value float64
}

// SanitizeMetricName maps an arbitrary string onto the Prometheus metric
// name alphabet [a-zA-Z0-9_:], replacing every other byte with '_' and
// prefixing an underscore when the first byte would be an illegal leading
// digit. Callers that splice untrusted strings (node names, session ids)
// into metric names must pass each component through this — a hostile name
// otherwise corrupts the whole exposition, not just its own series.
func SanitizeMetricName(s string) string {
	valid := func(i int, b byte) bool {
		return b == '_' || b == ':' ||
			(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') ||
			(b >= '0' && b <= '9' && i > 0)
	}
	clean := true
	for i := 0; i < len(s); i++ {
		if !valid(i, s[i]) {
			clean = false
			break
		}
	}
	if clean && s != "" {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 1)
	for i := 0; i < len(s); i++ {
		if valid(i, s[i]) {
			sb.WriteByte(s[i])
		} else {
			sb.WriteByte('_')
		}
	}
	if s == "" {
		sb.WriteByte('_')
	}
	return sb.String()
}

// escapeHelp escapes a HELP string per the text exposition format:
// backslash and newline are the only escapes; a raw newline would
// otherwise terminate the comment line and inject arbitrary exposition
// lines (the hole hostile node names in gauge help text would open).
var escapeHelp = strings.NewReplacer(`\`, `\\`, "\n", `\n`, "\r", `\n`).Replace

// WritePrometheus writes every counter series plus the supplied gauges in
// Prometheus text exposition format. Counter names carry the ricsa_
// prefix and _total suffix per convention; stage sums are exported in
// seconds as Prometheus prefers for time series.
func (c *Counters) WritePrometheus(w io.Writer, gauges ...Gauge) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, escapeHelp(help), name, name, v)
	}
	seconds := func(name, help string, ns int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, escapeHelp(help), name, name, float64(ns)/1e9)
	}

	counter("ricsa_sessions_admitted_total", "Sessions accepted by admission control.", c.SessionsAdmitted.Load())
	counter("ricsa_sessions_rejected_limit_total", "Session creates rejected at the hard session limit.", c.SessionsRejectedLimit.Load())
	counter("ricsa_sessions_rejected_overload_total", "Session creates rejected at the frame-budget watermark.", c.SessionsRejectedOverload.Load())
	counter("ricsa_sessions_destroyed_total", "Sessions destroyed.", c.SessionsDestroyed.Load())
	counter("ricsa_viewers_attached_total", "Viewer attaches across all sessions.", c.ViewersAttached.Load())
	counter("ricsa_viewers_detached_total", "Viewer detaches (client-initiated).", c.ViewersDetached.Load())
	counter("ricsa_viewers_evicted_total", "Viewers evicted for falling behind the frame stream.", c.ViewersEvicted.Load())
	counter("ricsa_frames_produced_total", "Frames produced across all sessions.", c.FramesProduced.Load())
	counter("ricsa_frames_rendered_total", "Frames that ran the render+encode stages (not skipped by lazy rendering).", c.FramesRendered.Load())
	counter("ricsa_frames_late_total", "Frames that started past their scheduled cadence.", c.FramesLate.Load())
	counter("ricsa_frames_steer_view_total", "Out-of-cadence frames view steers triggered (no solver step).", c.FramesSteerView.Load())
	counter("ricsa_telemetry_records_dropped_total", "Frame records shed because the sink fell behind.", c.RecordsDropped.Load())
	counter("ricsa_blocks_reused_total", "Dirty-block ROI cache hits: per-block meshes reused without re-extraction.", c.BlocksReused.Load())
	counter("ricsa_blocks_extracted_total", "Blocks re-extracted by the dirty-block ROI path.", c.BlocksExtracted.Load())

	for t := 0; t < NumTierSeries; t++ {
		name := tierSeriesNames[t]
		counter("ricsa_tier_encodes_"+name+"_total", "Frames the producer encoded at the "+name+" tier.", c.TierEncodes[t].Load())
		counter("ricsa_tier_frames_sent_"+name+"_total", "Frames delivered to viewers at the "+name+" tier.", c.TierFramesSent[t].Load())
		counter("ricsa_tier_bytes_sent_"+name+"_total", "Encoded bytes delivered to viewers at the "+name+" tier.", c.TierBytesSent[t].Load())
	}

	seconds("ricsa_stage_sim_seconds_total", "Cumulative simulation+snapshot stage time.", c.StageSimNS.Load())
	seconds("ricsa_stage_render_seconds_total", "Cumulative extract+raster stage time.", c.StageRenderNS.Load())
	seconds("ricsa_stage_encode_seconds_total", "Cumulative PNG encode stage time.", c.StageEncodeNS.Load())
	seconds("ricsa_stage_produce_seconds_total", "Cumulative whole-produce time.", c.StageProduceNS.Load())
	seconds("ricsa_queue_wait_seconds_total", "Cumulative frame start delay past scheduled cadence.", c.QueueWaitNS.Load())
	seconds("ricsa_pool_wait_seconds_total", "Cumulative producer stall on the shared frame-compute pool.", c.PoolWaitNS.Load())
	seconds("ricsa_delivery_predicted_seconds_total", "Cumulative slowest-branch predicted delivery delay.", c.DeliveryNS.Load())

	for _, g := range gauges {
		// Gauge names are assembled by callers, sometimes from node names
		// learned off the wire; sanitize here as the last line of defense so
		// one hostile name cannot corrupt the whole exposition.
		name := SanitizeMetricName(g.Name)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, escapeHelp(g.Help), name, name, g.Value)
	}
}
