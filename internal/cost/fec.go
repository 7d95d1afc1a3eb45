package cost

import "math"

// This file prices the two transport delivery models the optimizer can
// choose between on each virtual link (DESIGN §13): the NACK path (the
// stabilized transport's retransmission loop) and the fountain-FEC path
// (package transport/fec: one coded burst, no retransmission state). Both
// models are pure functions of the edge's measured bandwidth, delay, and
// loss estimate, so the dynamic program stays deterministic and the
// choice is re-derived whenever the connection manager republishes the
// graph.

// TransportMode selects the delivery model priced into transfer-time
// predictions and used by the execution layer.
type TransportMode uint8

const (
	// TransportNACK is the retransmission path — the historical behaviour
	// and the zero value, so untouched graphs price exactly as before.
	TransportNACK TransportMode = iota
	// TransportFEC is the fountain-coded path: every frame carries
	// proactive repair blocks sized to the edge's loss estimate.
	TransportFEC
	// TransportAuto prices both models per edge and takes the cheaper,
	// preferring NACK on ties (no redundancy overhead when loss is zero).
	TransportAuto
)

func (m TransportMode) String() string {
	switch m {
	case TransportFEC:
		return "fec"
	case TransportAuto:
		return "auto"
	}
	return "nack"
}

// maxRedundancy caps the provisioned repair fraction: beyond it the coded
// burst would cost more than simply retransmitting, and the generation
// shape would overflow the 256-block evaluation space anyway.
const maxRedundancy = 4.0

// BlackHoleLossClamp is the loss estimate at or above which a link is
// priced as black-holed rather than merely lossy. Below it the geometric
// retransmission (or redundancy) models apply; at or above it neither
// model converges to anything physical — loss/(1-loss) explodes while the
// FEC redundancy cap quietly *under*-prices a dead link at a flat (1+r)
// factor, which is the bug this constant fixes.
const BlackHoleLossClamp = 0.99

// BlackHoleBudgetSeconds is the finite collapse bound adopted for a
// black-holed edge — the same semantics as MeasureEPBBounded's timeout
// adoption, where a probe that cannot complete within its budget prices
// the link as if the whole budget were consumed. Finite, so the dynamic
// program still produces a mapping when only dead links remain, but
// dominating any live alternative path.
const BlackHoleBudgetSeconds = 60.0

// blackHoleDeliverySeconds is the transport-independent collapse price of
// a transfer over a black-holed edge: the full collapse budget on top of
// the serialization floor. Both delivery models return it identically, so
// TransportAuto cannot sneak a dead link through the cheaper model.
func blackHoleDeliverySeconds(bytes, bw, delaySec float64) float64 {
	if bw <= 0 {
		return math.Inf(1)
	}
	return BlackHoleBudgetSeconds + bytes/bw + delaySec
}

// FECRedundancy derives the provisioned repair fraction r from the
// connection manager's per-edge loss estimate and its confidence:
//
//	r = loss * (2 - conf) / (1 - loss)
//
// loss/(1-loss) repair per source block exactly covers the expected
// losses; the (2 - conf) factor doubles the margin when the estimate is
// untrusted (conf 0) and shrinks toward the expectation as confidence
// approaches 1. Zero loss provisions zero redundancy.
func FECRedundancy(loss, conf float64) float64 {
	if loss <= 0 {
		return 0
	}
	if loss > 0.99 {
		loss = 0.99
	}
	if conf < 0 {
		conf = 0
	} else if conf > 1 {
		conf = 1
	}
	r := loss * (2 - conf) / (1 - loss)
	if r > maxRedundancy {
		r = maxRedundancy
	}
	return r
}

// NACKDeliverySeconds predicts delivering size bytes over a link with the
// retransmission transport: serialization plus propagation, plus one
// round trip per expected retransmission round. Loss draws are i.i.d., so
// the expected number of extra rounds is geometric, loss/(1-loss).
func NACKDeliverySeconds(bytes, bw, delaySec, loss float64) float64 {
	if bw <= 0 {
		return math.Inf(1)
	}
	if loss >= BlackHoleLossClamp {
		return blackHoleDeliverySeconds(bytes, bw, delaySec)
	}
	base := bytes/bw + delaySec
	if loss <= 0 {
		return base
	}
	return base + 2*delaySec*loss/(1-loss)
}

// FECDeliverySeconds predicts delivering size bytes over a link with the
// fountain-coded transport: the burst carries (1+r) times the source
// bytes and completes in a single propagation delay — bandwidth is
// traded for the retransmission round trips the NACK model pays.
func FECDeliverySeconds(bytes, bw, delaySec, loss, conf float64) float64 {
	if bw <= 0 {
		return math.Inf(1)
	}
	if loss >= BlackHoleLossClamp {
		return blackHoleDeliverySeconds(bytes, bw, delaySec)
	}
	return bytes*(1+FECRedundancy(loss, conf))/bw + delaySec
}

// DeliverySeconds prices one transfer under the given mode. TransportAuto
// evaluates both models and returns the cheaper, preferring NACK on ties.
func DeliverySeconds(mode TransportMode, bytes, bw, delaySec, loss, conf float64) float64 {
	switch mode {
	case TransportFEC:
		return FECDeliverySeconds(bytes, bw, delaySec, loss, conf)
	case TransportAuto:
		nack := NACKDeliverySeconds(bytes, bw, delaySec, loss)
		fec := FECDeliverySeconds(bytes, bw, delaySec, loss, conf)
		if fec < nack {
			return fec
		}
		return nack
	}
	return NACKDeliverySeconds(bytes, bw, delaySec, loss)
}
