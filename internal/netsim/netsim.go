// Package netsim provides a deterministic, discrete-event wide-area network
// emulator. It stands in for the geographically distributed Internet testbed
// used in the RICSA paper (ORNL, LSU, UT, NCState, OSU, GaTech): nodes with
// heterogeneous compute power are joined by links with configurable
// bandwidth, propagation delay, random loss, jitter, and time-varying cross
// traffic.
//
// All activity runs on a virtual clock driven by a single event loop, so
// experiments are reproducible bit-for-bit given a seed. Higher layers
// (transport protocols, bulk data transfers, the steering framework) are
// written as event-driven state machines against this clock.
package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is virtual time elapsed since the start of the simulation.
type Time = time.Duration

// event is a scheduled callback. Events at the same instant fire in
// scheduling order (seq breaks ties) to keep runs deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
func (h eventHeap) peek() *event { return h[0] }

// Network is a simulated WAN: a set of named nodes joined by links, plus the
// event loop that advances virtual time.
type Network struct {
	now   Time
	pq    eventHeap
	seq   uint64
	rng   *rand.Rand
	nodes map[string]*Node
	links []*Link
}

// New creates an empty network whose random processes (loss, jitter, cross
// traffic) are driven by the given seed.
func New(seed int64) *Network {
	return &Network{
		rng:   rand.New(rand.NewSource(seed)),
		nodes: make(map[string]*Node),
	}
}

// Now reports the current virtual time.
func (n *Network) Now() Time { return n.now }

// Schedule runs fn after delay d of virtual time. Negative delays fire
// immediately (at the current instant).
func (n *Network) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	n.At(n.now+d, fn)
}

// At runs fn at absolute virtual time t (clamped to now).
func (n *Network) At(t Time, fn func()) {
	if t < n.now {
		t = n.now
	}
	n.seq++
	heap.Push(&n.pq, &event{at: t, seq: n.seq, fn: fn})
}

// Run drains the event queue, advancing virtual time until no events remain.
func (n *Network) Run() {
	for n.pq.Len() > 0 {
		n.step()
	}
}

// RunUntil processes events with timestamps <= t, then sets the clock to t.
func (n *Network) RunUntil(t Time) {
	for n.pq.Len() > 0 && n.pq.peek().at <= t {
		n.step()
	}
	if t > n.now {
		n.now = t
	}
}

// RunFor advances the clock by d, processing all events in that window.
func (n *Network) RunFor(d time.Duration) { n.RunUntil(n.now + d) }

func (n *Network) step() {
	e := heap.Pop(&n.pq).(*event)
	if e.at > n.now {
		n.now = e.at
	}
	e.fn()
}

// Pending reports the number of queued events (useful in tests).
func (n *Network) Pending() int { return n.pq.Len() }

// NextEventAt reports the timestamp of the earliest queued event. ok is
// false when the queue is empty. Bounded drivers (MeasureBulkWithin) use it
// to stop before processing events past their budget.
func (n *Network) NextEventAt() (t Time, ok bool) {
	if n.pq.Len() == 0 {
		return 0, false
	}
	return n.pq.peek().at, true
}

// SetNodeDown marks every channel touching the named node dark (down=true)
// or restores them (down=false) — a host failure or recovery as the rest of
// the WAN observes it. Unknown names are a no-op.
func (n *Network) SetNodeDown(name string, down bool) {
	for _, l := range n.links {
		if l.A.Name == name || l.B.Name == name {
			l.AB.SetDown(down)
			l.BA.SetDown(down)
		}
	}
}

// A Node is a compute host in the emulated WAN.
//
// Power is the normalized computing power p_i from the paper's analytical
// model (Section 4.2): a node with Power 2 executes a visualization module of
// a given complexity in half the time of a node with Power 1. HasGPU marks
// nodes capable of running the rendering module (the paper notes the GaTech
// and OSU hosts had no graphics cards, which constrains the mapping).
// Workers is the usable parallel width for cluster nodes (MPI-style modules).
type Node struct {
	Name    string
	Power   float64
	HasGPU  bool
	Workers int
	net     *Network
}

// AddNode registers a node. It panics on duplicate names: topologies are
// static fixtures, so a duplicate is a programming error.
func (n *Network) AddNode(name string, power float64) *Node {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	nd := &Node{Name: name, Power: power, Workers: 1, net: n}
	n.nodes[name] = nd
	return nd
}

// Nodes returns all registered nodes (order unspecified).
func (n *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(n.nodes))
	for _, nd := range n.nodes {
		out = append(out, nd)
	}
	return out
}

// LinkConfig describes one direction of a link.
type LinkConfig struct {
	// Bandwidth is the bottleneck capacity in bytes per second.
	Bandwidth float64
	// Delay is the fixed propagation + equipment delay.
	Delay time.Duration
	// Loss is the independent per-packet drop probability in [0,1).
	Loss float64
	// Jitter adds a uniform random extra delay in [0, Jitter) per packet.
	Jitter time.Duration
	// QueueLimit bounds the number of packets awaiting serialization;
	// 0 means unlimited. Excess packets are tail-dropped.
	QueueLimit int
	// Cross, when non-nil, modulates available bandwidth over time to
	// emulate competing wide-area traffic.
	Cross *CrossTraffic
}

// A Link joins two nodes with a full-duplex pair of channels.
type Link struct {
	A, B *Node
	AB   *Channel // A -> B
	BA   *Channel // B -> A
}

// SetDown marks both directions of the link dark (or restores them) — the
// scriptable link-flap event.
func (l *Link) SetDown(down bool) {
	l.AB.SetDown(down)
	l.BA.SetDown(down)
}

// ScaleBandwidth multiplies both directions' current capacity by factor —
// the scriptable bandwidth-step event (factor > 1 restores or upgrades).
func (l *Link) ScaleBandwidth(factor float64) {
	l.AB.SetBandwidth(l.AB.Config().Bandwidth * factor)
	l.BA.SetBandwidth(l.BA.Config().Bandwidth * factor)
}

// SetDelay sets both directions' fixed propagation delay — the scriptable
// delay-step event.
func (l *Link) SetDelay(d time.Duration) {
	l.AB.SetDelay(d)
	l.BA.SetDelay(d)
}

// Connect joins nodes a and b with symmetric channel configuration.
func (n *Network) Connect(a, b *Node, cfg LinkConfig) *Link {
	return n.ConnectAsym(a, b, cfg, cfg)
}

// ConnectAsym joins a and b with per-direction configurations.
func (n *Network) ConnectAsym(a, b *Node, ab, ba LinkConfig) *Link {
	l := &Link{
		A:  a,
		B:  b,
		AB: newChannel(n, a, b, ab),
		BA: newChannel(n, b, a, ba),
	}
	n.links = append(n.links, l)
	return l
}

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// FindLink returns the link between the named nodes (either orientation),
// or nil if none exists.
func (n *Network) FindLink(a, b string) *Link {
	for _, l := range n.links {
		if (l.A.Name == a && l.B.Name == b) || (l.A.Name == b && l.B.Name == a) {
			return l
		}
	}
	return nil
}

// Channel returns the directed channel from node a to node b, or nil.
func (n *Network) Channel(a, b string) *Channel {
	l := n.FindLink(a, b)
	if l == nil {
		return nil
	}
	if l.A.Name == a {
		return l.AB
	}
	return l.BA
}
