package netsim

import "time"

// Packet is a unit of transmission on a channel. Payload is opaque to the
// network; Size (bytes) is what the channel charges bandwidth for.
type Packet struct {
	From, To string
	Size     int
	Payload  any
}

// ChannelStats accumulates per-channel counters.
type ChannelStats struct {
	Sent      uint64 // packets accepted for transmission
	Delivered uint64 // packets that arrived
	Lost      uint64 // packets dropped by random loss
	TailDrops uint64 // packets dropped because the queue was full
	Bytes     uint64 // payload bytes delivered
}

// Channel is a unidirectional packet channel with a FIFO serialization queue.
// A packet occupies the line for Size/Bandwidth seconds (scaled by the
// instantaneous cross-traffic factor), then propagates for Delay plus random
// jitter, and is finally either delivered to the handler or dropped by
// random loss.
type Channel struct {
	net       *Network
	From, To  *Node
	cfg       LinkConfig
	busyUntil Time
	queued    int
	down      bool
	handler   func(Packet)
	stats     ChannelStats
}

func newChannel(n *Network, from, to *Node, cfg LinkConfig) *Channel {
	if cfg.Bandwidth <= 0 {
		panic("netsim: channel bandwidth must be positive")
	}
	return &Channel{net: n, From: from, To: to, cfg: cfg}
}

// SetHandler installs the receive callback. Packets delivered before a
// handler is installed are silently discarded.
func (c *Channel) SetHandler(fn func(Packet)) { c.handler = fn }

// SetBandwidth changes the channel capacity at the current virtual time,
// emulating a drastic network condition change (congestion onset, a
// re-routed path). Queued packets already being serialized keep their old
// schedule; subsequent packets see the new rate.
func (c *Channel) SetBandwidth(bytesPerSec float64) {
	if bytesPerSec <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	c.cfg.Bandwidth = bytesPerSec
}

// SetDelay changes the fixed propagation delay at the current virtual time
// (a re-routed path, a failing line card adding latency). In-flight packets
// keep their old arrival schedule.
func (c *Channel) SetDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.cfg.Delay = d
}

// SetLoss changes the independent per-packet drop probability.
func (c *Channel) SetLoss(p float64) {
	if p < 0 {
		p = 0
	}
	if p >= 1 {
		p = 1
	}
	c.cfg.Loss = p
}

// SetDown marks the channel dark: while down, Send accepts packets (the
// sender cannot tell) but every one vanishes without consuming capacity —
// a link flap or a failed node, as seen from this direction. In-flight
// packets already serialized still arrive.
func (c *Channel) SetDown(down bool) { c.down = down }

// Down reports whether the channel is currently dark.
func (c *Channel) Down() bool { return c.down }

// Config returns the channel's configuration.
func (c *Channel) Config() LinkConfig { return c.cfg }

// Network returns the network that owns the channel, so external flow
// models (package transport/fec) can drive the event loop they share.
func (c *Channel) Network() *Network { return c.net }

// Stats returns a snapshot of the channel counters.
func (c *Channel) Stats() ChannelStats { return c.stats }

// Backlog reports the number of packets queued awaiting serialization.
func (c *Channel) Backlog() int { return c.queued }

// Send enqueues p for transmission. It returns false if the packet was
// tail-dropped because the serialization queue was full.
func (c *Channel) Send(p Packet) bool {
	if c.down {
		c.stats.Sent++
		c.stats.Lost++
		return true // black-holed: consumed by the void, invisible to sender
	}
	if c.cfg.QueueLimit > 0 && c.queued >= c.cfg.QueueLimit {
		c.stats.TailDrops++
		return false
	}
	c.stats.Sent++
	c.queued++

	start := c.busyUntil
	if now := c.net.Now(); start < now {
		start = now
	}
	bw := c.cfg.Bandwidth
	if c.cfg.Cross != nil {
		bw *= c.cfg.Cross.Factor(c.net, start)
	}
	service := time.Duration(float64(p.Size) / bw * float64(time.Second))
	if service < 0 {
		service = 0
	}
	c.busyUntil = start + service

	arrive := c.busyUntil + c.cfg.Delay
	if c.cfg.Jitter > 0 {
		arrive += time.Duration(c.net.rng.Int63n(int64(c.cfg.Jitter)))
	}

	// Serialization completes: free a queue slot.
	c.net.At(c.busyUntil, func() { c.queued-- })

	if c.cfg.Loss > 0 && c.net.rng.Float64() < c.cfg.Loss {
		c.stats.Lost++
		return true // consumed bandwidth, then vanished
	}
	c.net.At(arrive, func() {
		c.stats.Delivered++
		c.stats.Bytes += uint64(p.Size)
		if c.handler != nil {
			c.handler(p)
		}
	})
	return true
}

// EffectiveBandwidth returns the configured capacity scaled by the current
// cross-traffic factor.
func (c *Channel) EffectiveBandwidth() float64 {
	bw := c.cfg.Bandwidth
	if c.cfg.Cross != nil {
		bw *= c.cfg.Cross.Factor(c.net, c.net.Now())
	}
	return bw
}
