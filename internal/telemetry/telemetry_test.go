package telemetry

import (
	"strings"
	"testing"

	"ricsa/internal/testutil"
)

func sampleRecord(seq uint64, rendered bool) FrameRecord {
	rec := FrameRecord{
		Session:     "s1",
		Seq:         seq,
		ProduceNS:   1000,
		SimNS:       600,
		RenderNS:    250,
		EncodeNS:    150,
		QueueWaitNS: 0,
		Branches:    2,
		Rendered:    rendered,
	}
	rec.Delivery[0] = 40
	rec.Delivery[1] = 90
	return rec
}

func TestCollectorCountersAndBatching(t *testing.T) {
	var batches [][]FrameRecord
	sink := SinkFunc(func(batch []FrameRecord) {
		cp := make([]FrameRecord, len(batch))
		copy(cp, batch)
		batches = append(batches, cp)
	})
	c := NewCollector(sink, 4)

	for i := 0; i < 10; i++ {
		rec := sampleRecord(uint64(i+1), i%2 == 0)
		if i == 3 {
			rec.QueueWaitNS = 7
		}
		c.RecordFrame(&rec)
	}

	if len(batches) != 2 {
		t.Fatalf("expected 2 full batches, got %d", len(batches))
	}
	for bi, b := range batches {
		if len(b) != 4 {
			t.Fatalf("batch %d has %d records, want 4", bi, len(b))
		}
	}
	if batches[0][0].Seq != 1 || batches[1][3].Seq != 8 {
		t.Fatalf("batch ordering wrong: first=%d last=%d", batches[0][0].Seq, batches[1][3].Seq)
	}

	// The remaining 2 records drain on explicit Flush.
	c.Flush()
	if len(batches) != 3 || len(batches[2]) != 2 {
		t.Fatalf("flush did not drain partial batch: %d batches", len(batches))
	}
	c.Flush() // empty: no extra sink call
	if len(batches) != 3 {
		t.Fatalf("empty flush called sink")
	}

	snap := c.Snapshot()
	if snap.FramesProduced != 10 || snap.FramesRendered != 5 || snap.FramesLate != 1 {
		t.Fatalf("frame counters wrong: %+v", snap)
	}
	if snap.RecordsDropped != 0 {
		t.Fatalf("unexpected drops: %d", snap.RecordsDropped)
	}
	if got := c.StageSimNS.Load(); got != 6000 {
		t.Fatalf("StageSimNS = %d, want 6000", got)
	}
	// DeliveryNS accumulates the slowest branch (90) per frame.
	if got := c.DeliveryNS.Load(); got != 900 {
		t.Fatalf("DeliveryNS = %d, want 900", got)
	}
}

func TestCollectorNilSink(t *testing.T) {
	c := NewCollector(nil, 2)
	for i := 0; i < 5; i++ {
		rec := sampleRecord(uint64(i+1), true)
		c.RecordFrame(&rec)
	}
	c.Flush()
	if got := c.FramesProduced.Load(); got != 5 {
		t.Fatalf("FramesProduced = %d, want 5", got)
	}
	if got := c.RecordsDropped.Load(); got != 0 {
		t.Fatalf("nil sink should not count drops, got %d", got)
	}
}

// TestCollectorDropsWhenSinkBusy drives the overload path: a sink that
// itself records enough frames to fill the spare buffer while the first
// flush is still in flight. The refilled batch must be dropped and
// counted, not buffered without bound.
func TestCollectorDropsWhenSinkBusy(t *testing.T) {
	const batch = 4
	var c *Collector
	flushes := 0
	sink := SinkFunc(func(_ []FrameRecord) {
		flushes++
		if flushes > 1 {
			return
		}
		// Fill the active buffer twice while this flush is in flight:
		// the first refill must drop, and so must the second.
		for i := 0; i < 2*batch; i++ {
			rec := sampleRecord(100+uint64(i), false)
			c.RecordFrame(&rec)
		}
	})
	c = NewCollector(sink, batch)
	for i := 0; i < batch; i++ {
		rec := sampleRecord(uint64(i+1), false)
		c.RecordFrame(&rec)
	}
	if flushes != 1 {
		t.Fatalf("flushes = %d, want 1 (re-entrant records must drop, not flush)", flushes)
	}
	if got := c.RecordsDropped.Load(); got != 2*batch {
		t.Fatalf("RecordsDropped = %d, want %d", got, 2*batch)
	}
	// Counters still saw every record, dropped or not.
	if got := c.FramesProduced.Load(); got != 3*batch {
		t.Fatalf("FramesProduced = %d, want %d", got, 3*batch)
	}
}

// TestRecordFrameAllocationFlat is the committed 0 allocs/op proof for
// the telemetry hot path (satellite: same pattern as
// manager_alloc_test.go). The batch size is small so the measured loop
// crosses flush boundaries — batching and sink hand-off are part of the
// path being proven flat, not just the append.
func TestRecordFrameAllocationFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := NewCollector(SinkFunc(func([]FrameRecord) {}), 8)
	rec := sampleRecord(1, true)
	// Warm: fill and recycle both buffers once.
	for i := 0; i < 32; i++ {
		c.RecordFrame(&rec)
	}
	allocs := testing.AllocsPerRun(200, func() {
		c.RecordFrame(&rec)
	})
	if allocs != 0 {
		t.Fatalf("RecordFrame allocates %.1f allocs/op on the warm path, want 0", allocs)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := NewCollector(nil, 0)
	c.SessionsAdmitted.Store(7)
	c.SessionsRejectedOverload.Store(3)
	c.ViewersEvicted.Store(11)
	rec := sampleRecord(1, true)
	c.RecordFrame(&rec)

	var sb strings.Builder
	c.WritePrometheus(&sb,
		Gauge{Name: "ricsa_sessions_live", Help: "Live sessions.", Value: 4},
		Gauge{Name: "ricsa_load_fraction", Help: "Admitted frame-budget load.", Value: 0.25},
	)
	out := sb.String()

	for _, want := range []string{
		"ricsa_sessions_admitted_total 7\n",
		"ricsa_sessions_rejected_overload_total 3\n",
		"ricsa_viewers_evicted_total 11\n",
		"ricsa_frames_produced_total 1\n",
		"ricsa_stage_sim_seconds_total 6e-07\n",
		"# TYPE ricsa_sessions_live gauge\nricsa_sessions_live 4\n",
		"ricsa_load_fraction 0.25\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE") < 17 {
		t.Errorf("expected every series to carry TYPE metadata:\n%s", out)
	}
}

// TestFrameCauseCountedAndSunk checks the frame's cause reaches the sink
// record unchanged, a steer-view frame is counted in both FramesProduced
// and FramesSteerView, and the zero value reads as a tick.
func TestFrameCauseCountedAndSunk(t *testing.T) {
	var got []FrameCause
	c := NewCollector(SinkFunc(func(batch []FrameRecord) {
		for _, r := range batch {
			got = append(got, r.Cause)
		}
	}), 3)
	for i, cause := range []FrameCause{CauseTick, CauseSteerView, CauseTick} {
		rec := sampleRecord(uint64(i+1), true)
		rec.Cause = cause
		c.RecordFrame(&rec)
	}
	if len(got) != 3 || got[0] != CauseTick || got[1] != CauseSteerView || got[2] != CauseTick {
		t.Fatalf("sunk causes %v, want [tick steer_view tick]", got)
	}
	snap := c.Snapshot()
	if snap.FramesProduced != 3 || snap.FramesSteerView != 1 {
		t.Fatalf("produced %d, steer-view %d; want 3 and 1", snap.FramesProduced, snap.FramesSteerView)
	}
	var zero FrameRecord
	if zero.Cause.String() != "tick" || CauseSteerView.String() != "steer_view" {
		t.Fatalf("cause names %q/%q, want tick/steer_view", zero.Cause, CauseSteerView)
	}
	var sb strings.Builder
	c.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "ricsa_frames_steer_view_total 1\n") {
		t.Fatalf("exposition lacks the steer-view counter:\n%s", sb.String())
	}
}
