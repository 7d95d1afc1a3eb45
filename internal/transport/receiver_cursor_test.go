package transport

import (
	"testing"

	"ricsa/internal/netsim"
)

// newReorder feeds seqs to a fresh receiver's reordering state in arrival
// order.
func newReorder(seqs ...uint64) *Receiver {
	r := &Receiver{pending: make(map[uint64]bool)}
	for _, s := range seqs {
		r.onData(s)
	}
	return r
}

// TestMissingScanResumesAtCursor: successive capped scans cover successive
// parts of the gap instead of re-reporting the head every tick, and the
// cursor wraps so every hole is eventually reported again.
func TestMissingScanResumesAtCursor(t *testing.T) {
	// 0,1 in order and then a sparse tail: the reordering gap is [2, 10]
	// with holes at 2,3,5,7,9.
	r := newReorder(0, 1, 4, 6, 8, 10)
	if r.cumAck != 2 || r.maxSeen != 10 {
		t.Fatalf("gap [%d, %d], want [2, 10]", r.cumAck, r.maxSeen)
	}
	check := func(got, want []uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("missing = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("missing = %v, want %v", got, want)
			}
		}
	}
	// The head-of-line hole (2) is re-reported every call — it gates
	// cumAck, so a lost retransmission must be recovered within one ack
	// interval; the tail scan resumes where the previous call stopped.
	check(r.missing(2), []uint64{2, 3})
	check(r.missing(2), []uint64{2, 5}) // tail resumes after 3, not at 3 again
	check(r.missing(3), []uint64{2, 7, 9})
	// A full-width request reports every hole exactly once.
	check(r.missing(100), []uint64{2, 3, 5, 7, 9})
}

// TestMissingCursorFollowsFrontier: when retransmissions advance cumAck
// past the cursor, the scan clamps forward instead of reporting sequences
// that are already delivered.
func TestMissingCursorFollowsFrontier(t *testing.T) {
	r := newReorder(0, 3, 5)
	if got := r.missing(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("missing = %v, want [1]", got)
	}
	// Retransmissions fill the head: cumAck jumps to 4.
	r.onData(1)
	r.onData(2)
	if r.cumAck != 4 {
		t.Fatalf("cumAck %d, want 4", r.cumAck)
	}
	if got := r.missing(4); len(got) != 1 || got[0] != 4 {
		t.Fatalf("missing after frontier advance = %v, want [4]", got)
	}
}

// TestUDPAckCoversWholeGap: the receiver's ACK datagrams walk a
// 10 000-sequence gap with the same cursor — every hole is NACKed within
// ceil(tail holes/(MaxNacksPerAck-1)) ticks and the head-of-line hole on
// every one — where a scan restarted at cumAck each tick could only ever
// report the lowest MaxNacksPerAck holes. The ticks are driven by hand and
// each ACK is read off the feedback channel as the sender would see it.
func TestUDPAckCoversWholeGap(t *testing.T) {
	const holes = 10000
	n := netsim.New(1)
	l := n.Connect(n.AddNode("a", 1), n.AddNode("b", 1), netsim.LinkConfig{Bandwidth: 1e9})
	cfg := DefaultConfig(1e6)
	cfg.MaxNacksPerAck = 64
	rcv := mustReceiver(t, n, l.BA, cfg)
	var acks []ackMsg
	l.BA.SetHandler(func(p netsim.Packet) { acks = append(acks, p.Payload.(ackMsg)) })
	rcv.onData(0)
	rcv.onData(holes + 1) // holes 1..holes

	reported := make(map[uint64]bool, holes)
	ticks := (holes - 1 + cfg.MaxNacksPerAck - 2) / (cfg.MaxNacksPerAck - 1) // 63 tail holes a tick
	for tick := 0; tick < ticks; tick++ {
		rcv.emitAck()
		n.Run()
		if len(acks) != tick+1 {
			t.Fatalf("tick %d: %d feedback datagrams delivered, want %d", tick, len(acks), tick+1)
		}
		ack := acks[tick]
		if ack.CumAck != 1 || len(ack.Nacks) != cfg.MaxNacksPerAck || ack.Nacks[0] != 1 {
			t.Fatalf("tick %d: ack cum=%d nacks=%v, want cum 1 and %d NACKs led by the head-of-line hole",
				tick, ack.CumAck, ack.Nacks, cfg.MaxNacksPerAck)
		}
		for _, s := range ack.Nacks {
			reported[s] = true
		}
	}
	if len(reported) != holes {
		t.Fatalf("%d of %d holes NACKed in %d ticks", len(reported), holes, ticks)
	}
}
