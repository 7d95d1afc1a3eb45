package fec

import (
	"bytes"
	"math/rand"
	"testing"

	"ricsa/internal/testutil"
)

func randFrame(rng *rand.Rand, n int) []byte {
	f := make([]byte, n)
	for i := range f {
		f[i] = byte(rng.Intn(256))
	}
	return f
}

// decodeSubset feeds the encoder's blocks to a fresh decoder, skipping
// the indices in lost (block ids: [0,k) source, [k,total) repair), and
// returns the decoded frame (nil if undecodable).
func decodeSubset(t *testing.T, e *Encoder, lost map[int]bool) []byte {
	t.Helper()
	d := NewDecoder()
	if err := d.Reset(e.NumSource(), e.BlockSize(), e.FrameLen()); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	for i := 0; i < e.NumSource(); i++ {
		if lost[i] {
			continue
		}
		if err := d.AddSource(i, e.SourceBlock(i)); err != nil {
			t.Fatalf("AddSource(%d): %v", i, err)
		}
	}
	for j := 0; j < e.NumRepair(); j++ {
		if lost[e.NumSource()+j] {
			continue
		}
		if err := d.AddRepair(j, e.RepairBlock(j)); err != nil {
			t.Fatalf("AddRepair(%d): %v", j, err)
		}
	}
	if !d.Ready() {
		return nil
	}
	out, err := d.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return out
}

// TestDecodeEveryLossPatternWithinRedundancy is the satellite property
// test: for several seeds and generation shapes, EVERY loss pattern that
// destroys at most the provisioned repair budget decodes byte-identical
// to the original frame. Patterns are enumerated exhaustively — the MDS
// (Cauchy) construction promises all of them, not a random sample.
func TestDecodeEveryLossPatternWithinRedundancy(t *testing.T) {
	shapes := []struct {
		frameLen int
		k        int
		r        float64
	}{
		{100, 1, 1.0},
		{1000, 4, 0.5},
		{4096, 8, 0.25},
		{777, 6, 0.34},
	}
	for _, seed := range []int64{1, 7, 23} {
		rng := rand.New(rand.NewSource(seed))
		for _, sh := range shapes {
			frame := randFrame(rng, sh.frameLen)
			e := NewEncoder()
			nRep := RepairBlocksFor(sh.k, sh.r)
			if err := e.Encode(frame, sh.k, nRep); err != nil {
				t.Fatalf("Encode(k=%d,rep=%d): %v", sh.k, nRep, err)
			}
			total := sh.k + nRep
			lost := make(map[int]bool, nRep)
			var rec func(start, left int)
			rec = func(start, left int) {
				got := decodeSubset(t, e, lost)
				if !bytes.Equal(got, frame) {
					t.Fatalf("seed=%d k=%d rep=%d lost=%v: decode mismatch (got %d bytes)",
						seed, sh.k, nRep, lost, len(got))
				}
				if left == 0 {
					return
				}
				for i := start; i < total; i++ {
					lost[i] = true
					rec(i+1, left-1)
					delete(lost, i)
				}
			}
			rec(0, nRep)
		}
	}
}

// TestDecodeBeyondRedundancyFails pins the complement: losing more
// blocks than the repair budget leaves the decoder not Ready, which is
// the case the delivery model prices as a NACK fallback.
func TestDecodeBeyondRedundancyFails(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	frame := randFrame(rng, 2048)
	e := NewEncoder()
	if err := e.Encode(frame, 8, 2); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	lost := map[int]bool{0: true, 3: true, 9: true} // 3 lost, budget 2
	if got := decodeSubset(t, e, lost); got != nil {
		t.Fatalf("decode succeeded with %d losses over a 2-block repair budget", len(lost))
	}
}

// TestReceiverDeliversOnAnySufficientSubset: a receiving decoder fed a
// generation's surviving blocks in shuffled arrival order becomes Ready on
// exactly the k-th distinct block, not before, and reconstructs the frame;
// a duplicate arriving first counts once.
func TestReceiverDeliversOnAnySufficientSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	frame := randFrame(rng, 5000)
	e := NewEncoder()
	if err := e.Encode(frame, 4, 2); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Drop two blocks (== repair budget), shuffle the rest: block ids
	// [0,4) are source, [4,6) repair.
	keep := []int{0, 2, 4, 5}
	rng.Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] })
	keep = append([]int{keep[0]}, keep...)

	d := NewDecoder()
	if err := d.Reset(e.NumSource(), e.BlockSize(), e.FrameLen()); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	for n, id := range keep {
		var err error
		if id < e.NumSource() {
			err = d.AddSource(id, e.SourceBlock(id))
		} else {
			err = d.AddRepair(id-e.NumSource(), e.RepairBlock(id-e.NumSource()))
		}
		if err != nil {
			t.Fatalf("block %d: %v", id, err)
		}
		if want := n == len(keep)-1; d.Ready() != want {
			t.Fatalf("Ready=%v after %d of %d arrivals (first one duplicated)", d.Ready(), n+1, len(keep))
		}
	}
	out, err := d.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(out, frame) {
		t.Fatal("decoded frame differs from encoded frame")
	}
}

// TestEncodeShapeErrors pins the typed construction errors.
func TestEncodeShapeErrors(t *testing.T) {
	e := NewEncoder()
	if err := e.Encode(nil, 4, 2); err != ErrFrameSize {
		t.Fatalf("empty frame: got %v, want ErrFrameSize", err)
	}
	if err := e.Encode([]byte{1}, 0, 2); err != ErrGenerationShape {
		t.Fatalf("k=0: got %v, want ErrGenerationShape", err)
	}
	if err := e.Encode([]byte{1}, MaxSourceBlocks, MaxTotalBlocks); err != ErrGenerationShape {
		t.Fatalf("oversize generation: got %v, want ErrGenerationShape", err)
	}
	d := NewDecoder()
	if err := d.Reset(4, 8, 100); err != ErrFrameSize {
		t.Fatalf("frame > k*blockSize: got %v, want ErrFrameSize", err)
	}
}

// TestEncodeAllocationFlat is the committed 0 allocs/op proof for the
// warm encode path: same shape frame after frame, no allocation.
func TestEncodeAllocationFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(9))
	frame := randFrame(rng, 64<<10)
	e := NewEncoder()
	if err := e.Encode(frame, 8, 3); err != nil {
		t.Fatalf("warm-up Encode: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.Encode(frame, 8, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Encode allocates %.1f allocs/op on the warm path, want 0", allocs)
	}
}

// TestRepairFountainProperty: repair rows are rateless — later rows
// (high j) decode just as well as early ones, so a sender can provision
// more redundancy without re-coding the source blocks.
func TestRepairFountainProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frame := randFrame(rng, 3000)
	e := NewEncoder()
	k := 4
	nRep := 6
	if err := e.Encode(frame, k, nRep); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Lose ALL source blocks; decode from the last k repair rows only.
	d := NewDecoder()
	if err := d.Reset(k, e.BlockSize(), e.FrameLen()); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	for j := nRep - k; j < nRep; j++ {
		if err := d.AddRepair(j, e.RepairBlock(j)); err != nil {
			t.Fatalf("AddRepair(%d): %v", j, err)
		}
	}
	out, err := d.Decode()
	if err != nil {
		t.Fatalf("Decode from repair-only tail rows: %v", err)
	}
	if !bytes.Equal(out, frame) {
		t.Fatal("repair-only decode mismatch")
	}
}
