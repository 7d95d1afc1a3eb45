package transport

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"ricsa/internal/clock"
)

// This file runs the Section 3 protocol over real UDP sockets (the paper's
// deployment uses UDP datagrams at application level, Fig. 2), in wall-clock
// time. The virtual-clock implementation in sender.go/receiver.go is used
// for deterministic experiments; this one is the production transport a
// deployment would run between hosts.
//
// Datagram wire format (little endian):
//
//	data: 'D' | seq uint64 | payload padding to Config.PacketSize
//	ack:  'A' | cumAck uint64 | goodput float64 | n uint16 | n x seq uint64

// UDPReceiver is the receiving endpoint of the real-UDP transport.
type UDPReceiver struct {
	conn *net.UDPConn
	cfg  Config
	clk  clock.Clock

	mu       sync.Mutex
	peer     *net.UDPAddr
	reorder  // the virtual receiver's reordering logic, guarded by mu
	lastTick time.Time
	trace    []Sample

	// InjectLoss drops this fraction of received datagrams before
	// processing, emulating path loss for loopback tests.
	InjectLoss float64
	rng        *rand.Rand

	stop chan struct{}
	done sync.WaitGroup
}

// ListenUDP binds a receiver to addr (use "127.0.0.1:0" for tests).
func ListenUDP(addr string, cfg Config) (*UDPReceiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cfg.Clock.Now().UnixNano()
	}
	r := &UDPReceiver{
		conn:    conn,
		cfg:     cfg,
		clk:     cfg.Clock,
		reorder: reorder{pending: make(map[uint64]bool)},
		rng:     rand.New(rand.NewSource(seed)),
		stop:    make(chan struct{}),
	}
	return r, nil
}

// Addr returns the bound address.
func (r *UDPReceiver) Addr() string { return r.conn.LocalAddr().String() }

// Start launches the datagram reader and the periodic ACK clock.
func (r *UDPReceiver) Start() {
	r.lastTick = r.clk.Now()
	r.done.Add(2)
	go r.readLoop()
	go r.ackLoop()
}

// Stop shuts the receiver down.
func (r *UDPReceiver) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.conn.Close()
	r.done.Wait()
}

// Delivered reports unique datagrams received.
func (r *UDPReceiver) Delivered() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deliveredPkts
}

// Duplicates reports discarded duplicate datagrams.
func (r *UDPReceiver) Duplicates() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dupPkts
}

func (r *UDPReceiver) readLoop() {
	defer r.done.Done()
	buf := make([]byte, 64<<10)
	for {
		n, addr, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		seq, ok := parseData(buf[:n])
		if !ok {
			continue
		}
		r.mu.Lock()
		r.peer = addr
		if r.InjectLoss > 0 && r.rng.Float64() < r.InjectLoss {
			r.mu.Unlock()
			continue
		}
		r.onData(seq)
		r.mu.Unlock()
	}
}

func (r *UDPReceiver) ackLoop() {
	defer r.done.Done()
	// Timer + Reset rather than a ticker: the re-arm is the quiescence edge
	// a virtual clock's rendezvous observes (see package clock).
	timer := r.clk.NewTimer(r.cfg.AckInterval)
	defer timer.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-timer.C():
			r.emitAck()
			timer.Reset(r.cfg.AckInterval)
		}
	}
}

func (r *UDPReceiver) emitAck() {
	r.mu.Lock()
	now := r.clk.Now()
	dt := now.Sub(r.lastTick)
	var g float64
	if dt > 0 {
		g = float64(r.windowPkts) * float64(r.cfg.PacketSize) / dt.Seconds()
	}
	r.windowPkts = 0
	r.lastTick = now
	r.trace = append(r.trace, Sample{At: time.Duration(now.UnixNano()), Goodput: g})

	nacks := r.missing(r.cfg.MaxNacksPerAck)
	peer := r.peer
	cum := r.cumAck
	r.mu.Unlock()

	if peer == nil {
		return
	}
	r.conn.WriteToUDP(appendAck(nil, cum, g, nacks), peer)
}

// UDPSender is the transmitting endpoint: burst Wc datagrams, sleep Ts,
// adapt Ts by Eq. 1 from receiver-reported goodput.
type UDPSender struct {
	conn *net.UDPConn
	cfg  Config
	clk  clock.Clock

	mu         sync.Mutex
	sleep      time.Duration
	nextSeq    uint64
	cumAck     uint64
	gEst       float64
	gInit      bool
	stepN      int
	retransmit []uint64
	inRetrans  map[uint64]bool
	lastSent   map[uint64]time.Time
	trace      []Sample
	start      time.Time

	stop chan struct{}
	done sync.WaitGroup
}

// DialUDP connects a sender to a receiver's address.
func DialUDP(raddr string, cfg Config) (*UDPSender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	ua, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", raddr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	return &UDPSender{
		conn:      conn,
		cfg:       cfg,
		clk:       cfg.Clock,
		sleep:     cfg.InitialSleep,
		inRetrans: make(map[uint64]bool),
		lastSent:  make(map[uint64]time.Time),
		stop:      make(chan struct{}),
	}, nil
}

// Start launches the burst loop, the ACK reader, and the update clock.
func (s *UDPSender) Start() {
	s.start = s.clk.Now()
	s.done.Add(3)
	go s.burstLoop()
	go s.ackLoop()
	go s.updateLoop()
}

// Stop shuts the sender down.
func (s *UDPSender) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.conn.Close()
	s.done.Wait()
}

// Trace returns goodput samples, one per Robbins-Monro step.
func (s *UDPSender) Trace() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.trace...)
}

// Sleep returns the current inter-burst sleep Ts.
func (s *UDPSender) Sleep() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sleep
}

func (s *UDPSender) burstLoop() {
	defer s.done.Done()
	buf := make([]byte, s.cfg.PacketSize)
	var timer clock.Timer
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		s.mu.Lock()
		w := s.cfg.Window
		var seqs []uint64
		for i := 0; i < w; i++ {
			seq, ok := s.pickSeqLocked()
			if !ok {
				break
			}
			seqs = append(seqs, seq)
		}
		sleep := s.sleep
		s.mu.Unlock()

		for _, seq := range seqs {
			putDataHeader(buf, seq)
			if _, err := s.conn.Write(buf); err != nil {
				return
			}
		}
		if timer == nil {
			timer = s.clk.NewTimer(sleep)
			defer timer.Stop()
		} else {
			timer.Reset(sleep)
		}
		select {
		case <-s.stop:
			return
		case <-timer.C():
		}
	}
}

func (s *UDPSender) pickSeqLocked() (uint64, bool) {
	now := s.clk.Now()
	for len(s.retransmit) > 0 {
		seq := s.retransmit[0]
		s.retransmit = s.retransmit[1:]
		delete(s.inRetrans, seq)
		if seq >= s.cumAck {
			s.lastSent[seq] = now
			return seq, true
		}
		delete(s.lastSent, seq)
	}
	if s.nextSeq-s.cumAck >= uint64(s.cfg.MaxFlight) {
		return 0, false
	}
	seq := s.nextSeq
	s.nextSeq++
	s.lastSent[seq] = now
	return seq, true
}

func (s *UDPSender) ackLoop() {
	defer s.done.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := s.conn.Read(buf)
		if err != nil {
			return
		}
		cum, g, nacks, ok := parseAck(buf[:n])
		if !ok {
			continue
		}
		now := s.clk.Now()
		s.mu.Lock()
		if cum > s.cumAck {
			for seq := range s.lastSent {
				if seq < cum {
					delete(s.lastSent, seq)
				}
			}
			s.cumAck = cum
		}
		if !s.gInit {
			s.gEst, s.gInit = g, true
		} else {
			s.gEst += s.cfg.Smoothing * (g - s.gEst)
		}
		for _, seq := range nacks {
			if seq < s.cumAck || s.inRetrans[seq] {
				continue
			}
			if at, ok := s.lastSent[seq]; ok && now.Sub(at) < s.cfg.RetransHold {
				continue
			}
			s.inRetrans[seq] = true
			s.retransmit = append(s.retransmit, seq)
		}
		s.mu.Unlock()
	}
}

func (s *UDPSender) updateLoop() {
	defer s.done.Done()
	timer := s.clk.NewTimer(s.cfg.UpdateInterval)
	defer timer.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-timer.C():
			s.update()
			timer.Reset(s.cfg.UpdateInterval)
		}
	}
}

// update is the wall-clock Robbins-Monro step — identical math to the
// virtual-clock sender.
func (s *UDPSender) update() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stepN++
	gain := s.cfg.Gain
	if s.cfg.DecayExp > 0 {
		gain = s.cfg.Gain / math.Pow(float64(s.stepN), s.cfg.DecayExp)
	}
	gPkts := s.gEst / float64(s.cfg.PacketSize)
	targetPkts := s.cfg.Target / float64(s.cfg.PacketSize)
	invTs := 1.0 / s.sleep.Seconds()
	invTs -= gain / math.Pow(float64(s.cfg.Window), s.cfg.Alpha) * (gPkts - targetPkts)
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
	s.trace = append(s.trace, Sample{
		At:      s.clk.Since(s.start),
		Goodput: s.gEst,
		Sleep:   s.sleep,
		Window:  s.cfg.Window,
	})
}

// ErrNoSamples is returned by RunStabilizedUDP when the run produced no
// goodput samples (e.g. immediate socket failure).
var ErrNoSamples = errors.New("transport: no goodput samples collected")

// RunStabilizedUDP runs a loopback (or cross-host) stabilized transfer for
// the given wall-clock duration and returns the sender's goodput trace.
// injectLoss emulates path loss at the receiver.
func RunStabilizedUDP(cfg Config, dur time.Duration, injectLoss float64) ([]Sample, error) {
	rcv, err := ListenUDP("127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	rcv.InjectLoss = injectLoss
	rcv.Start()
	defer rcv.Stop()

	snd, err := DialUDP(rcv.Addr(), cfg)
	if err != nil {
		return nil, err
	}
	snd.Start()
	snd.clk.Sleep(dur)
	snd.Stop()

	tr := snd.Trace()
	if len(tr) == 0 {
		return nil, ErrNoSamples
	}
	return tr, nil
}
