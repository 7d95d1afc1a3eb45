package transport

import (
	"encoding/binary"
	"testing"
	"time"

	"ricsa/internal/netsim"
)

// Fuzz target for the receiver's reordering state machine. Run the full
// fuzzer with
//
//	go test -run NONE -fuzz FuzzReceiverIngest -fuzztime 30s ./internal/transport
//
// Under plain `go test` it replays its seed corpus (f.Add calls plus
// testdata/fuzz/FuzzReceiverIngest), so corpus regressions are caught in CI.

// FuzzReceiverIngest replays an arbitrary byte stream as a sequence of
// (possibly truncated, duplicated, or wildly reordered) sequence numbers
// into the protocol receiver and checks its reordering invariants hold.
func FuzzReceiverIngest(f *testing.F) {
	// chunk frames one sequence number the way the target reads it: a
	// length byte (take = 1 + b%24, so 8 selects 8 payload bytes) and the
	// little-endian seq.
	chunk := func(seq uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{8}, seq)
	}
	var ordered []byte
	for seq := uint64(0); seq < 4; seq++ {
		ordered = append(ordered, chunk(seq)...)
	}
	f.Add(ordered)
	f.Add(append(append([]byte{}, ordered...), chunk(1000)...))
	f.Add([]byte("short chunks decode to nothing"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		n := netsim.New(1)
		a := n.AddNode("a", 1)
		b := n.AddNode("b", 1)
		l := n.Connect(a, b, netsim.LinkConfig{Bandwidth: netsim.MB, Delay: time.Millisecond})
		r := mustReceiver(t, n, l.BA, DefaultConfig(netsim.MB))

		var lastCum uint64
		for len(stream) > 0 {
			// Interpret the next chunk as one datagram: a 1-byte length
			// prefix (mod 24) selects how much of the stream the "datagram"
			// carries, exercising truncation at every size. A chunk shorter
			// than a sequence number is dropped.
			take := 1 + int(stream[0])%24
			if take > len(stream) {
				take = len(stream)
			}
			pkt := stream[1:take]
			stream = stream[take:]
			if len(pkt) >= 8 {
				r.onData(binary.LittleEndian.Uint64(pkt))
			}

			if r.cumAck < lastCum {
				t.Fatalf("cumAck regressed: %d -> %d", lastCum, r.cumAck)
			}
			lastCum = r.cumAck
			// (cumAck-1 form: maxSeen+1 overflows when the fuzzer feeds
			// seq 2^64-1.)
			if r.haveAny && r.cumAck > 0 && r.cumAck-1 > r.maxSeen {
				t.Fatalf("cumAck %d beyond maxSeen %d", r.cumAck, r.maxSeen)
			}
			if r.pending[r.cumAck] {
				t.Fatal("in-order frontier left a delivered packet pending")
			}
			nacks := r.missing(r.cfg.MaxNacksPerAck)
			for i, s := range nacks {
				if i > 0 && nacks[i-1] >= s {
					t.Fatalf("missing() not strictly sorted: %v", nacks)
				}
				if s < r.cumAck || (r.haveAny && s > r.maxSeen) {
					t.Fatalf("missing() reported %d outside [%d, %d]", s, r.cumAck, r.maxSeen)
				}
				if r.pending[s] {
					t.Fatalf("missing() reported received packet %d", s)
				}
			}
		}
	})
}
