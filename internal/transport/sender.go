package transport

import (
	"math"
	"time"

	"ricsa/internal/netsim"
)

// Sender is the stabilized transport source. It emits Window datagrams per
// burst, sleeps Ts, and adapts Ts by the Robbins-Monro rule so that the
// sender-side goodput measurement converges to Config.Target.
type Sender struct {
	net  *netsim.Network
	data *netsim.Channel // forward path (data)
	cfg  Config

	running bool
	nextSeq uint64
	sleep   time.Duration

	// Retransmission state: NACKed sequence numbers awaiting resend, plus
	// the time each sequence was last (re)sent, for the hold-off check.
	retransmit []uint64
	inRetrans  map[uint64]bool
	lastSent   map[uint64]netsim.Time

	// Goodput measurement: the receiver reports its unique-data receiving
	// rate (the paper's g_R, duplicates excluded) in every ACK; the sender
	// smooths those reports with an EWMA before entering Eq. 1.
	cumAck   uint64
	gEst     float64
	gInit    bool
	stepN    int
	trace    []Sample
	lastStep netsim.Time
}

// NewSender creates a stabilized sender transmitting on data. Call Bind on
// the reverse channel so ACKs reach the sender, then Start. A nonsensical
// config is rejected with a *ConfigError.
func NewSender(n *netsim.Network, data *netsim.Channel, cfg Config) (*Sender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	return &Sender{
		net:       n,
		data:      data,
		cfg:       cfg,
		sleep:     cfg.InitialSleep,
		inRetrans: make(map[uint64]bool),
		lastSent:  make(map[uint64]netsim.Time),
	}, nil
}

// Bind installs the sender's ACK handler on the reverse channel.
func (s *Sender) Bind(rev *netsim.Channel) {
	rev.SetHandler(s.handlePacket)
}

// handlePacket processes one feedback packet.
func (s *Sender) handlePacket(p netsim.Packet) {
	if ack, ok := p.Payload.(ackMsg); ok {
		s.onAck(ack)
	}
}

// Start begins the burst/sleep cycle and the Robbins-Monro update loop.
func (s *Sender) Start() {
	if s.running {
		return
	}
	s.running = true
	s.lastStep = s.net.Now()
	s.burst()
	s.scheduleUpdate()
}

// Stop halts transmission after the current scheduled events drain.
func (s *Sender) Stop() { s.running = false }

// Trace returns the recorded goodput samples, one per update step.
func (s *Sender) Trace() []Sample { return s.trace }

// Sleep returns the current sleep (idle) time Ts.
func (s *Sender) Sleep() time.Duration { return s.sleep }

func (s *Sender) burst() {
	if !s.running {
		return
	}
	for i := 0; i < s.cfg.Window; i++ {
		seq, ok := s.pickSeq()
		if !ok {
			break // flight limit reached and nothing to retransmit
		}
		s.data.Send(netsim.Packet{
			From:    s.data.From.Name,
			To:      s.data.To.Name,
			Size:    s.cfg.PacketSize,
			Payload: dataMsg{Seq: seq},
		})
	}
	s.net.Schedule(s.sleep, s.burst)
}

// pickSeq prefers retransmissions over new data, as in Fig. 2's
// "reload lost datagrams" path, and refuses new data beyond the flight
// limit (the receiver-buffer bound).
func (s *Sender) pickSeq() (uint64, bool) {
	for len(s.retransmit) > 0 {
		seq := s.retransmit[0]
		s.retransmit = s.retransmit[1:]
		delete(s.inRetrans, seq)
		if seq >= s.cumAck { // still useful
			s.lastSent[seq] = s.net.Now()
			return seq, true
		}
		delete(s.lastSent, seq)
	}
	if s.nextSeq-s.cumAck >= uint64(s.cfg.MaxFlight) {
		return 0, false
	}
	seq := s.nextSeq
	s.nextSeq++
	s.lastSent[seq] = s.net.Now()
	return seq, true
}

func (s *Sender) onAck(ack ackMsg) {
	if ack.CumAck > s.cumAck {
		// Drop bookkeeping for everything now cumulatively acknowledged —
		// lastSent, the retransmit queue, and its membership map — so a
		// long-lived sender's state stays O(flight window) instead of
		// accreting entries that pickSeq would only shed lazily.
		s.cumAck = ack.CumAck
		for seq := range s.lastSent {
			if seq < s.cumAck {
				delete(s.lastSent, seq)
			}
		}
		if len(s.retransmit) > 0 {
			keep := s.retransmit[:0]
			for _, seq := range s.retransmit {
				if seq >= s.cumAck {
					keep = append(keep, seq)
				} else {
					delete(s.inRetrans, seq)
				}
			}
			s.retransmit = keep
		}
	}
	if !s.gInit {
		s.gEst = ack.Goodput
		s.gInit = true
	} else {
		s.gEst += s.cfg.Smoothing * (ack.Goodput - s.gEst)
	}
	now := s.net.Now()
	for _, seq := range ack.Nacks {
		if seq < s.cumAck || s.inRetrans[seq] {
			continue
		}
		// Hold-off: a copy sent recently may simply still be queued at the
		// bottleneck; re-sending it would only manufacture duplicates.
		if at, ok := s.lastSent[seq]; ok && now-at < netsim.Time(s.cfg.RetransHold) {
			continue
		}
		s.inRetrans[seq] = true
		s.retransmit = append(s.retransmit, seq)
	}
}

func (s *Sender) scheduleUpdate() {
	if !s.running {
		return
	}
	s.net.Schedule(s.cfg.UpdateInterval, func() {
		s.update()
		s.scheduleUpdate()
	})
}

// update performs one Robbins-Monro step (Eq. 1 of the paper).
func (s *Sender) update() {
	now := s.net.Now()
	if now <= s.lastStep && s.stepN > 0 {
		return
	}
	g := s.gEst // smoothed receiver-reported goodput, bytes/s
	s.lastStep = now
	s.stepN++

	gain := s.cfg.Gain
	if s.cfg.DecayExp > 0 {
		gain = s.cfg.Gain / math.Pow(float64(s.stepN), s.cfg.DecayExp)
	}

	// Work in packets/second so the gain is dimensionless across packet
	// sizes: gPkts - targetPkts is the error Eq. 1 feeds back through
	// a/Wc^alpha into the inverse sleep time (which is windows/second).
	gPkts := g / float64(s.cfg.PacketSize)
	targetPkts := s.cfg.Target / float64(s.cfg.PacketSize)
	errPkts := gPkts - targetPkts

	invTs := 1.0 / s.sleep.Seconds()
	invTs -= gain / math.Pow(float64(s.cfg.Window), s.cfg.Alpha) * errPkts
	var newSleep time.Duration
	if invTs <= 1.0/s.cfg.MaxSleep.Seconds() {
		newSleep = s.cfg.MaxSleep
	} else {
		newSleep = time.Duration(1.0 / invTs * float64(time.Second))
	}
	if newSleep < s.cfg.MinSleep {
		newSleep = s.cfg.MinSleep
	}
	s.sleep = newSleep

	s.trace = append(s.trace, Sample{At: now, Goodput: g, Sleep: s.sleep, Window: s.cfg.Window})
}
