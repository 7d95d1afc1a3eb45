package transport

import (
	"math"
	"testing"
	"time"

	"ricsa/internal/netsim"
)

// pair builds a two-node network with a forward data channel and reverse
// feedback channel.
func pair(seed int64, fwd, rev netsim.LinkConfig) (*netsim.Network, *netsim.Channel, *netsim.Channel) {
	n := netsim.New(seed)
	a := n.AddNode("src", 1)
	b := n.AddNode("dst", 1)
	l := n.ConnectAsym(a, b, fwd, rev)
	return n, l.AB, l.BA
}

func cleanLink(bw float64) netsim.LinkConfig {
	return netsim.LinkConfig{Bandwidth: bw, Delay: 10 * time.Millisecond, QueueLimit: 256}
}

func TestStabilizedConvergesToTargetCleanLink(t *testing.T) {
	target := 1.0 * netsim.MB // g* = 1 MB/s on a 4 MB/s link
	n, fwd, rev := pair(1, cleanLink(4*netsim.MB), cleanLink(4*netsim.MB))
	tr := RunStabilized(n, fwd, rev, DefaultConfig(target), 30*time.Second)

	if len(tr) < 100 {
		t.Fatalf("trace too short: %d samples", len(tr))
	}
	mean := MeanGoodput(tr, 15*time.Second)
	if math.Abs(mean-target)/target > 0.1 {
		t.Fatalf("steady-state goodput %.0f, want within 10%% of %.0f", mean, target)
	}
	if _, ok := ConvergenceTime(tr, target, 0.15, 3*time.Second); !ok {
		t.Fatal("goodput never converged to the target band")
	}
}

func TestStabilizedConvergesUnderRandomLoss(t *testing.T) {
	target := 800.0 * 1024
	lossy := netsim.LinkConfig{Bandwidth: 4 * netsim.MB, Delay: 15 * time.Millisecond,
		Loss: 0.05, Jitter: 2 * time.Millisecond, QueueLimit: 256}
	n, fwd, rev := pair(7, lossy, cleanLink(4*netsim.MB))
	tr := RunStabilized(n, fwd, rev, DefaultConfig(target), 40*time.Second)

	mean := MeanGoodput(tr, 20*time.Second)
	if math.Abs(mean-target)/target > 0.12 {
		t.Fatalf("steady-state goodput %.0f under 5%% loss, want ~%.0f", mean, target)
	}
	rms := RMSError(tr, target, 20*time.Second)
	if rms > 0.35 {
		t.Fatalf("steady-state RMS error %.2f too high", rms)
	}
}

func TestStabilizedConvergesFromAboveAndBelow(t *testing.T) {
	target := 500.0 * 1024
	for _, initial := range []time.Duration{time.Millisecond, 200 * time.Millisecond} {
		cfg := DefaultConfig(target)
		cfg.InitialSleep = initial
		n, fwd, rev := pair(3, cleanLink(4*netsim.MB), cleanLink(4*netsim.MB))
		tr := RunStabilized(n, fwd, rev, cfg, 30*time.Second)
		mean := MeanGoodput(tr, 15*time.Second)
		if math.Abs(mean-target)/target > 0.1 {
			t.Fatalf("initial sleep %v: steady goodput %.0f, want ~%.0f", initial, mean, target)
		}
	}
}

func TestStabilizedTracksDifferentTargets(t *testing.T) {
	for _, target := range []float64{256 * 1024, 512 * 1024, 2 * netsim.MB} {
		n, fwd, rev := pair(11, cleanLink(8*netsim.MB), cleanLink(8*netsim.MB))
		tr := RunStabilized(n, fwd, rev, DefaultConfig(target), 30*time.Second)
		mean := MeanGoodput(tr, 15*time.Second)
		if math.Abs(mean-target)/target > 0.1 {
			t.Fatalf("target %.0f: steady goodput %.0f", target, mean)
		}
	}
}

func TestStabilizedSaturatesWhenTargetExceedsCapacity(t *testing.T) {
	// g* above link capacity: goodput should settle near capacity, not
	// oscillate wildly or collapse.
	capacity := 1.0 * netsim.MB
	target := 4.0 * netsim.MB
	n, fwd, rev := pair(5, cleanLink(capacity), cleanLink(capacity))
	tr := RunStabilized(n, fwd, rev, DefaultConfig(target), 30*time.Second)
	mean := MeanGoodput(tr, 15*time.Second)
	if mean < 0.6*capacity || mean > 1.05*capacity {
		t.Fatalf("saturated goodput %.0f, want near capacity %.0f", mean, capacity)
	}
}

func TestStabilizedLowerJitterThanAIMD(t *testing.T) {
	mk := func(seed int64) (*netsim.Network, *netsim.Channel, *netsim.Channel) {
		lossy := netsim.LinkConfig{Bandwidth: 2 * netsim.MB, Delay: 20 * time.Millisecond,
			Loss: 0.02, QueueLimit: 128}
		return pair(seed, lossy, cleanLink(2*netsim.MB))
	}
	target := 600.0 * 1024

	n1, f1, r1 := mk(21)
	stab := RunStabilized(n1, f1, r1, DefaultConfig(target), 40*time.Second)

	n2, f2, r2 := mk(21)
	aimd := RunAIMD(n2, f2, r2, DefaultConfig(target), 40*time.Millisecond, 40*time.Second)

	cvStab := CoefficientOfVariation(stab, 20*time.Second)
	cvAIMD := CoefficientOfVariation(aimd, 20*time.Second)
	if math.IsNaN(cvStab) || math.IsNaN(cvAIMD) {
		t.Fatal("missing samples")
	}
	if cvStab >= cvAIMD {
		t.Fatalf("stabilized CV %.3f should be below AIMD CV %.3f", cvStab, cvAIMD)
	}
}

func TestDecayingGainAlsoConverges(t *testing.T) {
	target := 700.0 * 1024
	cfg := DefaultConfig(target)
	cfg.Gain = 1.2
	cfg.DecayExp = 0.6 // Robbins-Monro schedule
	n, fwd, rev := pair(13, cleanLink(4*netsim.MB), cleanLink(4*netsim.MB))
	tr := RunStabilized(n, fwd, rev, cfg, 40*time.Second)
	mean := MeanGoodput(tr, 25*time.Second)
	if math.Abs(mean-target)/target > 0.15 {
		t.Fatalf("decaying gain: steady goodput %.0f, want ~%.0f", mean, target)
	}
}

func TestReceiverInOrderDeliveryAndDuplicates(t *testing.T) {
	n := netsim.New(1)
	a := n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	l := n.Connect(a, b, netsim.LinkConfig{Bandwidth: 1e9})
	cfg := DefaultConfig(1e6)
	r := mustReceiver(t, n, l.BA, cfg)
	r.Bind(l.AB)

	send := func(seq uint64) {
		l.AB.Send(netsim.Packet{Size: cfg.PacketSize, Payload: dataMsg{Seq: seq}})
	}
	// Out of order with duplicates: 0,2,2,1,4,3,0
	for _, s := range []uint64{0, 2, 2, 1, 4, 3, 0} {
		send(s)
	}
	n.Run()
	if r.Delivered() != 5 {
		t.Fatalf("delivered %d unique, want 5", r.Delivered())
	}
	if r.Duplicates() != 2 {
		t.Fatalf("duplicates %d, want 2", r.Duplicates())
	}
	if r.cumAck != 5 {
		t.Fatalf("cumAck %d, want 5", r.cumAck)
	}
}

// TestUDPReceiverDeduplicates: on a clean link the only duplicates are
// spurious retransmissions, and they must stay a small fraction of the
// unique datagrams delivered.
func TestUDPReceiverDeduplicates(t *testing.T) {
	n, fwd, rev := pair(3, cleanLink(4*netsim.MB), cleanLink(4*netsim.MB))
	cfg := DefaultConfig(1e6)
	snd := mustSender(t, n, fwd, cfg)
	rcv := mustReceiver(t, n, rev, cfg)
	rcv.Bind(fwd)
	snd.Bind(rev)
	rcv.Start()
	snd.Start()
	n.RunFor(10 * time.Second)

	if rcv.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
	if d, u := rcv.Duplicates(), rcv.Delivered(); d > u/5 {
		t.Fatalf("%d duplicates vs %d unique", d, u)
	}
}

// TestTwoFlowsConvergeToIndependentTargets: two sessions' stabilized flows
// run on one simulator clock, each on its own path from the same source
// node, and each must hit its own g* — the multi-session scenario of the
// paper's front end.
func TestTwoFlowsConvergeToIndependentTargets(t *testing.T) {
	n := netsim.New(5)
	src := n.AddNode("src", 1)
	targets := [2]float64{400 * 1024, 900 * 1024}
	var senders [2]*Sender
	for i, name := range []string{"dst1", "dst2"} {
		l := n.ConnectAsym(src, n.AddNode(name, 1),
			netsim.LinkConfig{Bandwidth: 4 * netsim.MB, Delay: 15 * time.Millisecond, QueueLimit: 512},
			netsim.LinkConfig{Bandwidth: 4 * netsim.MB, Delay: 15 * time.Millisecond})
		cfg := DefaultConfig(targets[i])
		snd := mustSender(t, n, l.AB, cfg)
		rcv := mustReceiver(t, n, l.BA, cfg)
		rcv.Bind(l.AB)
		snd.Bind(l.BA)
		rcv.Start()
		snd.Start()
		senders[i] = snd
	}
	n.RunFor(40 * time.Second)
	for i, snd := range senders {
		mean := MeanGoodput(snd.Trace(), 20*time.Second)
		if math.Abs(mean-targets[i])/targets[i] > 0.12 {
			t.Fatalf("flow %d: steady goodput %.0f, want ~%.0f", i, mean, targets[i])
		}
	}
}

func TestReceiverNackGeneration(t *testing.T) {
	n := netsim.New(1)
	a := n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	l := n.Connect(a, b, netsim.LinkConfig{Bandwidth: 1e9})
	cfg := DefaultConfig(1e6)
	r := mustReceiver(t, n, l.BA, cfg)
	r.Bind(l.AB)

	for _, s := range []uint64{0, 1, 4, 6} {
		l.AB.Send(netsim.Packet{Size: cfg.PacketSize, Payload: dataMsg{Seq: s}})
	}
	n.Run()
	miss := r.missing(10)
	want := []uint64{2, 3, 5}
	if len(miss) != len(want) {
		t.Fatalf("missing = %v, want %v", miss, want)
	}
	for i := range want {
		if miss[i] != want[i] {
			t.Fatalf("missing = %v, want %v", miss, want)
		}
	}
}

func TestRetransmissionRecoversAllData(t *testing.T) {
	// With heavy loss, the cumulative ACK must still advance: every gap is
	// eventually NACKed and retransmitted.
	lossy := netsim.LinkConfig{Bandwidth: 2 * netsim.MB, Delay: 10 * time.Millisecond,
		Loss: 0.15, QueueLimit: 256}
	n, fwd, rev := pair(9, lossy, cleanLink(2*netsim.MB))
	cfg := DefaultConfig(400 * 1024)
	snd := mustSender(t, n, fwd, cfg)
	rcv := mustReceiver(t, n, rev, cfg)
	rcv.Bind(fwd)
	snd.Bind(rev)
	rcv.Start()
	snd.Start()
	n.RunFor(20 * time.Second)

	// The in-order frontier should be close to the send frontier: stalled
	// retransmission would leave cumAck far behind nextSeq.
	if snd.cumAck == 0 {
		t.Fatal("no data acknowledged")
	}
	gap := float64(snd.nextSeq-snd.cumAck) / float64(snd.nextSeq)
	if gap > 0.05 {
		t.Fatalf("in-order frontier lags send frontier by %.1f%%", gap*100)
	}
}

func TestSleepClampedToBounds(t *testing.T) {
	cfg := DefaultConfig(100 * netsim.MB) // impossible target drives Ts to MinSleep
	n, fwd, rev := pair(2, cleanLink(1*netsim.MB), cleanLink(1*netsim.MB))
	snd := mustSender(t, n, fwd, cfg)
	rcv := mustReceiver(t, n, rev, cfg)
	rcv.Bind(fwd)
	snd.Bind(rev)
	rcv.Start()
	snd.Start()
	n.RunFor(10 * time.Second)
	if snd.Sleep() < cfg.MinSleep || snd.Sleep() > cfg.MaxSleep {
		t.Fatalf("sleep %v outside [%v, %v]", snd.Sleep(), cfg.MinSleep, cfg.MaxSleep)
	}
}

func TestTraceDeterministicAcrossRuns(t *testing.T) {
	run := func() []Sample {
		lossy := netsim.LinkConfig{Bandwidth: 2 * netsim.MB, Delay: 10 * time.Millisecond,
			Loss: 0.03, Jitter: time.Millisecond, QueueLimit: 128}
		n, fwd, rev := pair(99, lossy, cleanLink(2*netsim.MB))
		return RunStabilized(n, fwd, rev, DefaultConfig(500*1024), 10*time.Second)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestConvergenceTimeHelper(t *testing.T) {
	mk := func(vals ...float64) []Sample {
		tr := make([]Sample, len(vals))
		for i, v := range vals {
			tr[i] = Sample{At: netsim.Time(i) * netsim.Time(time.Second), Goodput: v}
		}
		return tr
	}
	// Enters band at t=2s and holds.
	tr := mk(10, 50, 100, 101, 99, 100, 100, 100)
	at, ok := ConvergenceTime(tr, 100, 0.05, 3*time.Second)
	if !ok || at != 2*time.Second {
		t.Fatalf("convergence at %v ok=%v, want 2s", at, ok)
	}
	// Never holds long enough.
	tr = mk(10, 100, 10, 100, 10, 100)
	if _, ok := ConvergenceTime(tr, 100, 0.05, 3*time.Second); ok {
		t.Fatal("should not report convergence for oscillating trace")
	}
}

func TestRMSErrorHelper(t *testing.T) {
	tr := []Sample{
		{At: 0, Goodput: 90},
		{At: netsim.Time(time.Second), Goodput: 110},
	}
	rms := RMSError(tr, 100, 0)
	if math.Abs(rms-0.1) > 1e-9 {
		t.Fatalf("rms = %v, want 0.1", rms)
	}
	if !math.IsNaN(RMSError(nil, 100, 0)) {
		t.Fatal("empty trace should give NaN")
	}
}
