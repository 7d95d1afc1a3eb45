// Package fec implements the loss-adaptive fountain-coded transport mode
// (DESIGN §13): a systematic erasure codec that spends bandwidth instead
// of round trips. Each frame is split into k source blocks sent verbatim
// plus ceil(k·r) repair blocks, where the redundancy factor r is chosen
// from the connection manager's per-edge loss/confidence estimates; the
// receiver reconstructs the frame from ANY k of the k+ceil(k·r) blocks,
// so a loss costs extra bandwidth up front rather than an RTT of
// retransmission — exactly the trade the paper's window/NACK transport
// (Fig. 2) cannot make on lossy WAN edges.
//
// The code is a systematic fountain over GF(256): repair block j is the
// Cauchy-weighted sum sum_i inv((k+j) XOR i)·src_i, so repair rows are
// rateless (any j with k+j < 256 is valid, generated on demand) and every
// k×k submatrix of the generator is invertible — any loss pattern of at
// most ceil(k·r) blocks decodes to the byte-identical frame, a guarantee
// random-XOR LT codes cannot give. Everything is deterministic: no random
// state enters the codec, so encode and decode are pure functions of the
// frame bytes and the generation shape.
//
// FEC is a priced and emulated model, never sent on a socket: delivery
// over the emulated WAN is modelled by MeasureFrameWithin (measure.go), the
// FEC counterpart of netsim.MeasureBulkWithin.
package fec

import "errors"

const (
	// DefaultBlockSize is the source-block payload size frames are split
	// into when the caller has no better granularity: small enough that a
	// typical rendered frame spans 8-32 blocks (so fractional redundancy
	// quantizes usefully), large enough to keep event counts low.
	DefaultBlockSize = 16 << 10

	// MaxSourceBlocks bounds k. The Cauchy construction over GF(256)
	// indexes source blocks and repair rows from one 256-point space, so
	// k + repair <= 256 always; capping k at 128 guarantees at least as
	// many repair rows as source blocks (redundancy up to 1.0 at the
	// largest generation, far more at typical k).
	MaxSourceBlocks = 128

	// MaxTotalBlocks is the hard generation bound k + repair <= 256
	// imposed by the GF(256) evaluation-point space.
	MaxTotalBlocks = 256

	// MaxBlockBytes bounds one block's payload on the wire; with
	// MaxSourceBlocks this caps a generation at 8 MiB, far above any
	// rendered frame.
	MaxBlockBytes = 64 << 10
)

var (
	// ErrGenerationShape rejects an impossible generation geometry:
	// k outside [1, MaxSourceBlocks], total blocks above MaxTotalBlocks,
	// or a block size outside (0, MaxBlockBytes].
	ErrGenerationShape = errors.New("fec: invalid generation shape")
	// ErrFrameSize rejects a frame that is empty or does not fit the
	// declared generation (len > k·blockSize).
	ErrFrameSize = errors.New("fec: frame size inconsistent with generation")
	// ErrBlockIndex rejects a block index outside its generation.
	ErrBlockIndex = errors.New("fec: block index out of range")
	// ErrBlockSize rejects a block payload whose length differs from the
	// generation's block size.
	ErrBlockSize = errors.New("fec: block payload size mismatch")
	// ErrInsufficient reports a decode attempted with fewer than k blocks.
	ErrInsufficient = errors.New("fec: insufficient blocks to decode")
)

// GF(256) log/antilog tables over the AES-adjacent polynomial 0x11d. The
// exp table is doubled so gfMul can skip the mod-255 reduction.
var (
	gfExp [512]byte
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfInv returns the multiplicative inverse of a != 0.
func gfInv(a byte) byte { return gfExp[255-int(gfLog[a])] }

// cauchyCoeff is the generator entry tying repair row j to source block i
// in a k-source generation: inv((k+j) XOR i). Rows k+j and columns i draw
// from disjoint ranges of [0,256), so the XOR is never zero and every
// square submatrix is invertible (the Cauchy/MDS property the any-k
// delivery guarantee rests on).
func cauchyCoeff(k, j, i int) byte { return gfInv(byte(k+j) ^ byte(i)) }

// xorScaled folds f·src into dst over GF(256) (dst ^= f*src elementwise).
func xorScaled(dst, src []byte, f byte) {
	if f == 0 {
		return
	}
	lf := int(gfLog[f])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[lf+int(gfLog[s])]
		}
	}
}

// SourceBlocksFor returns the source-block count for a frame of the given
// length at DefaultBlockSize granularity, clamped to [1, MaxSourceBlocks].
func SourceBlocksFor(frameLen int) int {
	if frameLen <= 0 {
		return 1
	}
	k := (frameLen + DefaultBlockSize - 1) / DefaultBlockSize
	if k < 1 {
		k = 1
	}
	if k > MaxSourceBlocks {
		k = MaxSourceBlocks
	}
	return k
}

// RepairBlocksFor quantizes a redundancy factor r into a repair-block
// count for a k-source generation: ceil(k·r), at least one block whenever
// r > 0, clamped so k + repair never exceeds MaxTotalBlocks.
func RepairBlocksFor(k int, r float64) int {
	if r <= 0 || k <= 0 {
		return 0
	}
	n := int(float64(k)*r + 0.999999)
	if n < 1 {
		n = 1
	}
	if k+n > MaxTotalBlocks {
		n = MaxTotalBlocks - k
	}
	if n < 0 {
		n = 0
	}
	return n
}
