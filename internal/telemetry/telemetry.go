// Package telemetry is the live stack's production observability layer:
// a zero-allocation per-frame record batched to a pluggable sink, plus a
// flat atomic-counter registry exported in Prometheus text format by the
// web front end's /metrics endpoint.
//
// The design constraint is the same one that shaped the frame data plane
// (DESIGN §7.1): the producer goroutine records one FrameRecord per frame
// on its hot path, so recording must not allocate, must not block on I/O,
// and must stay cheap enough to be unconditional — telemetry that is
// turned off under load measures nothing exactly when it matters. Records
// are copied into a preallocated double buffer under a short critical
// section; when a batch fills, the full buffer is handed to the Sink
// outside the lock while the spare buffer keeps accepting records. If the
// sink is still busy when the second buffer fills, whole batches are
// dropped and counted — bounded memory under overload, never unbounded
// buffering, mirroring the session layer's slow-consumer policy.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// MaxBranches bounds the per-branch delivery timings a FrameRecord can
// carry inline. A multi-viewer session with more delivery branches than
// this records the slowest of the overflow in the last slot; keeping the
// array fixed-size is what keeps the record pointer-free and the hot path
// allocation-free.
const MaxBranches = 8

// FrameCause is why a frame was produced. The zero value is the paced
// tick, so records built before the field existed read as ticks.
type FrameCause uint8

const (
	// CauseTick is a frame of the session's paced loop: solver steps, then
	// the visualization of the advanced state.
	CauseTick FrameCause = iota
	// CauseSteerView is an out-of-cadence frame a view steer (zoom, yaw,
	// pitch, isovalue) triggered: zero solver steps, the unadvanced state
	// re-rendered under the new view.
	CauseSteerView
)

// String names the cause: "tick" or "steer_view", the suffix of its
// /metrics series.
func (c FrameCause) String() string {
	if c == CauseSteerView {
		return "steer_view"
	}
	return "tick"
}

// FrameRecord is one produced frame's measurement: where its wall time
// went, stage by stage, plus the delivery delays its installed mapping
// predicts. All durations are nanoseconds. The struct is fixed-size and
// holds no heap references beyond the Session string header, so copying
// it into a batch buffer allocates nothing.
type FrameRecord struct {
	// Session is the producing session's id; Seq its frame sequence.
	Session string
	Seq     uint64
	// ProduceNS is the whole produce call; SimNS the solver steps plus
	// dataset snapshot; RenderNS extraction plus rasterization; EncodeNS
	// the PNG encode. Idle (lazy-rendered) frames report zero Render/
	// Encode and Rendered == false.
	ProduceNS int64
	SimNS     int64
	RenderNS  int64
	EncodeNS  int64
	// QueueWaitNS is how late the frame started past its scheduled
	// cadence: zero when the previous frame finished inside the period,
	// the overrun otherwise. A persistently positive queue wait is the
	// backpressure signal admission control's watermark guards against.
	QueueWaitNS int64
	// PoolWaitNS is how long the producer stalled waiting for its batches
	// on the shared frame-compute pool this frame (sim sweeps plus block
	// extraction). Persistent pool wait means sessions are contending for
	// compute slots.
	PoolWaitNS int64
	// BlocksReused/BlocksExtracted are the dirty-block ROI cache's
	// classification for the frame: blocks whose cached mesh was kept vs
	// blocks re-extracted. A steady field reports Extracted == 0.
	BlocksReused    int
	BlocksExtracted int
	// Delivery holds the installed mapping's predicted delivery delay per
	// branch (a single-viewer session has exactly one); Branches is how
	// many entries are valid.
	Delivery [MaxBranches]int64
	Branches int
	// Rendered reports whether the frame actually went through the
	// render/encode stages (false for idle frames skipped by lazy
	// rendering).
	Rendered bool
	// Cause is why the frame was produced. A CauseSteerView frame ran no
	// solver step (SimNS is the snapshot alone) and reports QueueWaitNS 0.
	Cause FrameCause
}

// Sink receives full batches of frame records. Flush is called outside
// the batcher's lock, from whichever recording goroutine filled the
// batch; the slice is reused after Flush returns, so sinks that retain
// records must copy them. Implementations must be safe for concurrent
// use by multiple recording goroutines.
type Sink interface {
	Flush(batch []FrameRecord)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(batch []FrameRecord)

// Flush implements Sink.
func (f SinkFunc) Flush(batch []FrameRecord) { f(batch) }

// DefaultBatchSize is the records-per-flush a Collector uses when not
// told otherwise: large enough to amortize sink calls at production frame
// rates, small enough that a scrape never waits long for fresh data.
const DefaultBatchSize = 256

// Collector is the recording front end: the flat counter registry plus
// the double-buffered batcher. One Collector serves a whole
// SessionManager; every method is safe for concurrent use.
type Collector struct {
	Counters

	mu sync.Mutex
	// active is the buffer records append into; spare swaps in when a
	// flush hands active to the sink. Both are preallocated to the batch
	// size, so the steady state allocates nothing.
	active, spare []FrameRecord
	flushing      bool
	sink          Sink
}

// NewCollector builds a collector flushing to sink every batchSize
// records (<= 0 selects DefaultBatchSize). A nil sink keeps the counters
// and drops the records — the configuration a deployment without a
// metrics pipeline runs, paying only the counter updates.
func NewCollector(sink Sink, batchSize int) *Collector {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &Collector{
		active: make([]FrameRecord, 0, batchSize),
		spare:  make([]FrameRecord, 0, batchSize),
		sink:   sink,
	}
}

// RecordFrame folds the record into the counters and appends it to the
// current batch, flushing to the sink when the batch fills. This is the
// producer hot path: zero allocations, one short critical section, sink
// I/O always outside the lock.
//
//ricsa:noalloc
func (c *Collector) RecordFrame(rec *FrameRecord) {
	c.FramesProduced.Add(1)
	if rec.Rendered {
		c.FramesRendered.Add(1)
	}
	if rec.QueueWaitNS > 0 {
		c.FramesLate.Add(1)
	}
	if rec.Cause == CauseSteerView {
		c.FramesSteerView.Add(1)
	}
	c.StageSimNS.Add(rec.SimNS)
	c.StageRenderNS.Add(rec.RenderNS)
	c.StageEncodeNS.Add(rec.EncodeNS)
	c.StageProduceNS.Add(rec.ProduceNS)
	c.QueueWaitNS.Add(rec.QueueWaitNS)
	c.PoolWaitNS.Add(rec.PoolWaitNS)
	c.BlocksReused.Add(uint64(rec.BlocksReused))
	c.BlocksExtracted.Add(uint64(rec.BlocksExtracted))
	var worst int64
	for i := 0; i < rec.Branches && i < MaxBranches; i++ {
		if rec.Delivery[i] > worst {
			worst = rec.Delivery[i]
		}
	}
	c.DeliveryNS.Add(worst)

	if c.sink == nil {
		return
	}
	c.mu.Lock()
	c.active = append(c.active, *rec)
	if len(c.active) < cap(c.active) {
		c.mu.Unlock()
		return
	}
	if c.flushing {
		// The spare buffer is with the sink and this one just filled:
		// drop the batch rather than grow without bound. The counter
		// makes the loss visible instead of silent.
		c.RecordsDropped.Add(uint64(len(c.active)))
		c.active = c.active[:0]
		c.mu.Unlock()
		return
	}
	full := c.active
	c.active, c.spare = c.spare[:0], nil
	c.flushing = true
	c.mu.Unlock()

	c.sink.Flush(full)

	c.mu.Lock()
	c.spare = full[:0]
	c.flushing = false
	c.mu.Unlock()
}

// Flush hands any buffered records to the sink immediately (a scrape or
// shutdown drain). It is a no-op while a batch flush is in flight.
func (c *Collector) Flush() {
	if c.sink == nil {
		return
	}
	c.mu.Lock()
	if c.flushing || len(c.active) == 0 {
		c.mu.Unlock()
		return
	}
	full := c.active
	c.active, c.spare = c.spare[:0], nil
	c.flushing = true
	c.mu.Unlock()

	c.sink.Flush(full)

	c.mu.Lock()
	c.spare = full[:0]
	c.flushing = false
	c.mu.Unlock()
}

// Counters is the flat registry: one atomic per series, no maps, no
// labels allocated at record time. The session layer increments the
// admission/viewer counters directly; RecordFrame maintains the frame
// and stage series.
type Counters struct {
	// Admission control.
	SessionsAdmitted         atomic.Uint64
	SessionsRejectedLimit    atomic.Uint64
	SessionsRejectedOverload atomic.Uint64
	SessionsDestroyed        atomic.Uint64

	// Viewer lifecycle and backpressure.
	ViewersAttached atomic.Uint64
	ViewersDetached atomic.Uint64
	ViewersEvicted  atomic.Uint64

	// Frame production.
	FramesProduced atomic.Uint64
	FramesRendered atomic.Uint64
	// FramesLate counts frames that started past their scheduled cadence
	// (QueueWaitNS > 0).
	FramesLate atomic.Uint64
	// FramesSteerView counts the out-of-cadence frames view steers
	// triggered (Cause == CauseSteerView); they are among FramesProduced.
	FramesSteerView atomic.Uint64

	// Cumulative stage time, nanoseconds. Divide by FramesProduced (or
	// FramesRendered for the pixel stages) for per-frame means.
	StageSimNS     atomic.Int64
	StageRenderNS  atomic.Int64
	StageEncodeNS  atomic.Int64
	StageProduceNS atomic.Int64
	QueueWaitNS    atomic.Int64
	// PoolWaitNS accumulates producer stall on the shared frame-compute
	// pool — the contention signal for sizing -compute-workers.
	PoolWaitNS atomic.Int64
	// DeliveryNS accumulates the slowest predicted branch delivery per
	// frame — the delay frame pacing charges.
	DeliveryNS atomic.Int64

	// Dirty-block ROI cache effectiveness: blocks whose cached mesh was
	// reused vs blocks re-extracted, summed over rendered frames.
	BlocksReused    atomic.Uint64
	BlocksExtracted atomic.Uint64

	// RecordsDropped counts frame records shed because the sink could not
	// keep up with the batch rate.
	RecordsDropped atomic.Uint64

	// Viewer tier ladder (DESIGN §14), indexed by the tier's enum value:
	// encodes the producer performed at each tier, and frames/bytes the
	// delivery train shipped per tier. Arrays rather than maps keep the
	// registry flat and the hot-path increment a single atomic add.
	TierEncodes    [NumTierSeries]atomic.Uint64
	TierFramesSent [NumTierSeries]atomic.Uint64
	TierBytesSent  [NumTierSeries]atomic.Uint64
}

// NumTierSeries is the tier ladder size the per-tier counter arrays are
// indexed by. It must equal cost.NumTiers; telemetry stays dependency-free
// so the equality is pinned by a test instead of an import.
const NumTierSeries = 4

// tierSeriesNames maps a tier index to the suffix its Prometheus series
// carries, matching cost.Tier.String().
var tierSeriesNames = [NumTierSeries]string{"full", "half", "quarter", "delta"}

// CounterSnapshot is a plain-value copy of every counter, for tests and
// the scenario engine's ground-truth reconciliation.
type CounterSnapshot struct {
	SessionsAdmitted         uint64
	SessionsRejectedLimit    uint64
	SessionsRejectedOverload uint64
	SessionsDestroyed        uint64
	ViewersAttached          uint64
	ViewersDetached          uint64
	ViewersEvicted           uint64
	FramesProduced           uint64
	FramesRendered           uint64
	FramesLate               uint64
	FramesSteerView          uint64
	StageSimNS               int64
	StageRenderNS            int64
	StageEncodeNS            int64
	StageProduceNS           int64
	QueueWaitNS              int64
	PoolWaitNS               int64
	DeliveryNS               int64
	BlocksReused             uint64
	BlocksExtracted          uint64
	RecordsDropped           uint64
	TierEncodes              [NumTierSeries]uint64
	TierFramesSent           [NumTierSeries]uint64
	TierBytesSent            [NumTierSeries]uint64
}

// Snapshot copies every counter into a plain value.
func (c *Counters) Snapshot() CounterSnapshot {
	s := CounterSnapshot{
		SessionsAdmitted:         c.SessionsAdmitted.Load(),
		SessionsRejectedLimit:    c.SessionsRejectedLimit.Load(),
		SessionsRejectedOverload: c.SessionsRejectedOverload.Load(),
		SessionsDestroyed:        c.SessionsDestroyed.Load(),
		ViewersAttached:          c.ViewersAttached.Load(),
		ViewersDetached:          c.ViewersDetached.Load(),
		ViewersEvicted:           c.ViewersEvicted.Load(),
		FramesProduced:           c.FramesProduced.Load(),
		FramesRendered:           c.FramesRendered.Load(),
		FramesLate:               c.FramesLate.Load(),
		FramesSteerView:          c.FramesSteerView.Load(),
		StageSimNS:               c.StageSimNS.Load(),
		StageRenderNS:            c.StageRenderNS.Load(),
		StageEncodeNS:            c.StageEncodeNS.Load(),
		StageProduceNS:           c.StageProduceNS.Load(),
		QueueWaitNS:              c.QueueWaitNS.Load(),
		PoolWaitNS:               c.PoolWaitNS.Load(),
		DeliveryNS:               c.DeliveryNS.Load(),
		BlocksReused:             c.BlocksReused.Load(),
		BlocksExtracted:          c.BlocksExtracted.Load(),
		RecordsDropped:           c.RecordsDropped.Load(),
	}
	for t := 0; t < NumTierSeries; t++ {
		s.TierEncodes[t] = c.TierEncodes[t].Load()
		s.TierFramesSent[t] = c.TierFramesSent[t].Load()
		s.TierBytesSent[t] = c.TierBytesSent[t].Load()
	}
	return s
}
