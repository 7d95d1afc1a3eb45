// Package fcp is the frame-compute pool: one process-wide bounded set of
// worker goroutines that every per-frame compute kernel — solver pencil
// sweeps, block-parallel isosurface extraction — runs on, instead of each
// live session spawning its own goroutines per sweep. One pool bounds the
// whole service's compute parallelism at the machine size (the property the
// admission watermark of DESIGN §9 prices against), lets a single session
// use every core when it is alone, and divides the cores fairly when many
// sessions produce frames concurrently.
//
// Scheduling model. A submission is a *batch*: n independent items, indexed
// [0, n), each executed exactly once. Batches enter through per-session
// Queues; the pool services all open batches round-robin, one chunk of
// items at a time, so no session's batch can starve another's — fairness is
// per-session by construction, matching the admission control that decided
// those sessions may coexist. The submitting goroutine is itself a worker:
// Queue.Run claims chunks like any pool worker and only blocks once the
// batch has no unclaimed items left. That makes a 1-slot pool (or a closed
// pool, or a missing pool) degrade to plain inline execution on the caller
// — the zero-spawn serial mode the allocation-flat benchmarks measure — and
// it means submission never deadlocks waiting for a free worker.
//
// Determinism contract. The pool provides no ordering guarantees between
// items of a batch, so kernels must only write item-private state (disjoint
// cells per pencil, one mesh per block). Every kernel in this repo satisfies
// that, which is why results are bit-identical at any pool size and the
// scenario engine's byte-identical-log contract survives shared workers:
// pool workers are compute-only — they never wait on the virtual clock, and
// Queue.Run returns only when every item has run.
//
// The hot path allocates nothing in steady state: batches are embedded in
// their Queue, chunks are claimed under one short mutex, and completion is
// a reusable WaitGroup.
package fcp

import (
	"runtime"
	"sync"

	"ricsa/internal/telemetry"
)

// Task is one batch's kernel: Run executes item (in [0, n) of the Run call)
// on worker slot worker (in [0, Slots())). Items must be independent — the
// pool runs them concurrently in unspecified order — and Run must not
// submit to the same pool (no nested batches), or workers could deadlock.
// The worker slot lets kernels index per-slot scratch without locking: a
// slot runs at most one item at a time.
type Task interface {
	Run(worker, item int)
}

// Pool is a fixed-size frame-compute pool. The zero value is not usable;
// build one with NewPool or share the process-wide Default.
type Pool struct {
	slots int // total parallelism including the submitting caller

	mu     sync.Mutex
	cond   *sync.Cond
	active []*batch // open batches with unclaimed items, serviced round-robin
	rr     int      // round-robin cursor into active
	closed bool

	workers sync.WaitGroup
}

// batch is one Queue.Run in flight: a task, its item range, and the claim
// and completion state. It is embedded in its Queue and reused, so steady-
// state submission does not allocate.
type batch struct {
	t     Task
	n     int
	chunk int
	next  int            // next unclaimed item; guarded by the pool mutex
	wg    sync.WaitGroup // counts unfinished items
}

// NewPool builds a pool with the given total parallelism (the submitting
// caller counts as one slot, so slots-1 worker goroutines are spawned;
// slots <= 0 selects GOMAXPROCS). A 1-slot pool spawns nothing and runs
// every batch inline on its caller.
func NewPool(slots int) *Pool {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	p := &Pool{slots: slots, active: make([]*batch, 0, 16)}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < slots-1; w++ {
		p.workers.Add(1)
		go p.worker(w)
	}
	return p
}

// Close stops the worker goroutines after the open batches drain. Queues
// remain usable: with no workers left, Run executes batches inline on the
// caller, so closing mid-flight degrades throughput, never correctness.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.workers.Wait()
}

// NewQueue returns a submission queue on this pool. A Queue belongs to one
// producer goroutine (one live session); its batches are scheduled fairly
// against every other queue's. A Queue on a nil pool runs inline.
func (p *Pool) NewQueue() *Queue { return &Queue{pool: p} }

// worker is one pool goroutine: pick the next batch round-robin, claim a
// chunk under the lock, run it unlocked, repeat.
func (p *Pool) worker(slot int) {
	defer p.workers.Done()
	p.mu.Lock()
	for {
		for len(p.active) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.active) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		if p.rr >= len(p.active) {
			p.rr = 0
		}
		b := p.active[p.rr]
		lo, hi := p.claimLocked(b)
		p.mu.Unlock()
		for i := lo; i < hi; i++ {
			b.t.Run(slot, i)
		}
		b.wg.Add(lo - hi)
		p.mu.Lock()
	}
}

// claimLocked takes the next chunk of b, removing it from the active list
// when this claim exhausts it (the claimer still runs the chunk; the batch
// completes when its WaitGroup drains). Callers hold p.mu.
func (p *Pool) claimLocked(b *batch) (lo, hi int) {
	lo = b.next
	hi = lo + b.chunk
	if hi >= b.n {
		hi = b.n
		b.next = b.n
		for i, a := range p.active {
			if a == b {
				p.active = append(p.active[:i], p.active[i+1:]...)
				break
			}
		}
	} else {
		b.next = hi
		p.rr++ // move on so the next claimer services another queue's batch
	}
	return lo, hi
}

// Queue is one producer's submission handle. It is not safe for concurrent
// Run calls; one session's produce loop owns it.
type Queue struct {
	pool *Pool
	b    batch
	// waitNS accumulates the caller's completion stall: the time Run spent
	// blocked after the caller ran out of chunks to claim, waiting for pool
	// workers to finish theirs. Persistently high wait means the shared pool
	// is contended — the compute-side analogue of frame queue wait.
	waitNS int64
}

// Slots reports the per-slot scratch size kernels on this queue need: the
// pool's parallelism, or 1 for an inline (nil-pool) queue.
func (q *Queue) Slots() int {
	if q == nil || q.pool == nil {
		return 1
	}
	return q.pool.slots
}

// Run executes t over n items, participating from the calling goroutine,
// and returns when every item has run. The caller's worker slot is
// Slots()-1 (pool goroutines use the lower slots). Steady-state Run does
// not allocate.
//
//ricsa:noalloc
func (q *Queue) Run(n int, t Task) {
	if n <= 0 {
		return
	}
	var p *Pool
	if q != nil {
		p = q.pool
	}
	if p == nil || p.slots <= 1 || n == 1 {
		// Inline mode: no pool, a 1-slot pool, or a single item (not worth
		// a handoff). Slot 0 is the caller slot in a 1-slot world.
		caller := 0
		if p != nil {
			caller = p.slots - 1
		}
		for i := 0; i < n; i++ {
			t.Run(caller, i)
		}
		return
	}

	b := &q.b
	b.t, b.n, b.next = t, n, 0
	// Chunks trade claim overhead against load balance and fairness: a few
	// chunks per slot keeps stragglers short while letting the round-robin
	// interleave concurrent sessions' batches.
	b.chunk = n / (4 * p.slots)
	if b.chunk < 1 {
		b.chunk = 1
	}
	b.wg.Add(n)
	p.mu.Lock()
	p.active = append(p.active, b)
	p.mu.Unlock()
	p.cond.Broadcast()

	caller := p.slots - 1
	for {
		p.mu.Lock()
		if b.next >= b.n {
			p.mu.Unlock()
			break
		}
		lo, hi := p.claimLocked(b)
		p.mu.Unlock()
		for i := lo; i < hi; i++ {
			t.Run(caller, i)
		}
		b.wg.Add(lo - hi)
	}
	// Completion stall is stage telemetry: it measures real scheduler
	// contention behind other sessions' batches, which only the wall
	// clock can observe (see telemetry.Stopwatch).
	stall := telemetry.StartStage()
	b.wg.Wait()
	q.waitNS += stall.ElapsedNS()
	b.t = nil
}

// TakeWait returns the accumulated completion-stall nanoseconds since the
// previous TakeWait and resets the counter — produce drains it into the
// frame record once per frame.
func (q *Queue) TakeWait() int64 {
	if q == nil {
		return 0
	}
	w := q.waitNS
	q.waitNS = 0
	return w
}

// Process-wide default pool, sized by SetDefaultWorkers (the
// -compute-workers flag) and built lazily on first use.
var (
	defaultMu    sync.Mutex
	defaultPool  *Pool
	defaultSlots int
)

// SetDefaultWorkers sizes the process-wide default pool (<= 0 selects
// GOMAXPROCS). Call it at startup, before sessions exist; an already-built
// default pool is closed and rebuilt, and queues still holding the old pool
// fall back to inline execution.
func SetDefaultWorkers(n int) {
	defaultMu.Lock()
	old := defaultPool
	defaultPool = nil
	defaultSlots = n
	defaultMu.Unlock()
	if old != nil {
		old.Close()
	}
}

// Default returns the process-wide pool shared by every session that was
// not given an explicit pool.
func Default() *Pool {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultPool == nil {
		defaultPool = NewPool(defaultSlots)
	}
	return defaultPool
}
