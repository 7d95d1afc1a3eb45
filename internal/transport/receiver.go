package transport

import (
	"sort"

	"ricsa/internal/netsim"
)

// Receiver reorders incoming datagrams, delivers them in order, and emits
// periodic ACK/NACK feedback with its measured goodput (Fig. 2's receiver
// side: datagram reordering, receiver buffer, ACK/NACK generation).
type Receiver struct {
	net *netsim.Network
	ack *netsim.Channel // reverse path (feedback)
	cfg Config

	running bool

	cumAck  uint64 // all seq < cumAck received and delivered in order
	pending map[uint64]bool
	maxSeen uint64
	haveAny bool
	// scanFrom is the NACK scan cursor: missing resumes each ack tick where
	// the previous one stopped instead of rescanning the whole
	// [cumAck, maxSeen] gap, so sustained loss costs O(reported) per ack
	// rather than O(gap).
	scanFrom uint64

	deliveredPkts uint64 // unique packets delivered (goodput numerator)
	dupPkts       uint64
	windowPkts    uint64 // unique packets in current ACK window

	last netsim.Time
}

// NewReceiver creates a receiver that sends feedback on ack. Call Bind on
// the forward (data) channel, then Start to begin the ACK clock. A
// nonsensical config is rejected with a *ConfigError.
func NewReceiver(n *netsim.Network, ack *netsim.Channel, cfg Config) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	return &Receiver{
		net:     n,
		ack:     ack,
		cfg:     cfg,
		pending: make(map[uint64]bool),
	}, nil
}

// Bind installs the data handler on the forward channel.
func (r *Receiver) Bind(data *netsim.Channel) {
	data.SetHandler(r.handlePacket)
}

// handlePacket processes one datagram.
func (r *Receiver) handlePacket(p netsim.Packet) {
	if msg, ok := p.Payload.(dataMsg); ok {
		r.onData(msg.Seq)
	}
}

// Start begins the periodic ACK clock.
func (r *Receiver) Start() {
	if r.running {
		return
	}
	r.running = true
	r.last = r.net.Now()
	r.tick()
}

// Stop halts feedback generation.
func (r *Receiver) Stop() { r.running = false }

func (r *Receiver) onData(seq uint64) {
	if seq < r.cumAck || r.pending[seq] {
		r.dupPkts++
		return
	}
	r.pending[seq] = true
	if !r.haveAny || seq > r.maxSeen {
		r.maxSeen = seq
		r.haveAny = true
	}
	r.deliveredPkts++
	r.windowPkts++
	// Advance the in-order frontier.
	for r.pending[r.cumAck] {
		delete(r.pending, r.cumAck)
		r.cumAck++
	}
}

func (r *Receiver) tick() {
	if !r.running {
		return
	}
	r.net.Schedule(r.cfg.AckInterval, func() {
		r.emitAck()
		r.tick()
	})
}

func (r *Receiver) emitAck() {
	now := r.net.Now()
	dt := now - r.last
	var g float64
	if dt > 0 {
		g = float64(r.windowPkts) * float64(r.cfg.PacketSize) / dt.Seconds()
	}
	r.windowPkts = 0
	r.last = now

	nacks := r.missing(r.cfg.MaxNacksPerAck)
	r.ack.Send(netsim.Packet{
		From:    r.ack.From.Name,
		To:      r.ack.To.Name,
		Size:    32 + 8*len(nacks),
		Payload: ackMsg{CumAck: r.cumAck, Nacks: nacks, Goodput: g},
	})
}

// missing returns up to max sequence numbers in the reordering gap
// [cumAck, maxSeen] that have not arrived. The head-of-line hole (cumAck
// itself — the packet gating in-order delivery) is re-reported on every
// call, so a lost retransmission of it is recovered within one ack
// interval; the rest of the gap is scanned from the cursor the previous
// call left (wrapping at the end of the gap), so every other hole is still
// reported within a bounded number of ack ticks but one tick never rescans
// what an earlier tick already covered.
func (r *Receiver) missing(max int) []uint64 {
	if !r.haveAny || r.maxSeen < r.cumAck || max <= 0 {
		return nil
	}
	out := []uint64{r.cumAck}
	if r.scanFrom <= r.cumAck || r.scanFrom > r.maxSeen {
		r.scanFrom = r.cumAck + 1
	}
	span := r.maxSeen - r.cumAck // size of the tail gap (cumAck, maxSeen]
	seq := r.scanFrom
	for scanned := uint64(0); scanned < span && len(out) < max; scanned++ {
		if !r.pending[seq] {
			out = append(out, seq)
		}
		seq++
		if seq > r.maxSeen {
			seq = r.cumAck + 1
		}
	}
	r.scanFrom = seq
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
