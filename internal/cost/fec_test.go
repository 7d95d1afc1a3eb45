package cost

import (
	"math"
	"testing"
)

func TestTransportModeString(t *testing.T) {
	for m, want := range map[TransportMode]string{
		TransportNACK: "nack", TransportFEC: "fec", TransportAuto: "auto",
	} {
		if got := m.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestFECRedundancy(t *testing.T) {
	if r := FECRedundancy(0, 1); r != 0 {
		t.Fatalf("zero loss must provision zero redundancy, got %v", r)
	}
	// Full confidence provisions exactly the expected-loss ratio.
	if r, want := FECRedundancy(0.2, 1), 0.2/0.8; math.Abs(r-want) > 1e-12 {
		t.Fatalf("r(0.2, conf 1) = %v, want %v", r, want)
	}
	// Less confidence provisions more margin, monotonically.
	if FECRedundancy(0.2, 0) <= FECRedundancy(0.2, 0.5) ||
		FECRedundancy(0.2, 0.5) <= FECRedundancy(0.2, 1) {
		t.Fatal("redundancy must grow as confidence shrinks")
	}
	// Pathological loss is capped, not infinite.
	if r := FECRedundancy(0.999, 0); r != maxRedundancy {
		t.Fatalf("r near loss 1 = %v, want cap %v", r, maxRedundancy)
	}
}

// TestDeliverySecondsLosslessIdentity pins the bit-for-bit compatibility
// contract: with zero loss every mode prices exactly the historical
// formula bytes/bw + delay, so existing graphs and logs are unchanged.
func TestDeliverySecondsLosslessIdentity(t *testing.T) {
	base := 1e6/2e6 + 0.030
	for _, m := range []TransportMode{TransportNACK, TransportFEC, TransportAuto} {
		if got := DeliverySeconds(m, 1e6, 2e6, 0.030, 0, 0); got != base {
			t.Fatalf("mode %v lossless: %v != %v", m, got, base)
		}
	}
}

func TestDeliverySecondsTradeoff(t *testing.T) {
	// A long lossy path: the NACK model pays round trips, the FEC model
	// pays bandwidth. With ample bandwidth FEC must win and auto must
	// follow it.
	bytes, bw, delay, loss, conf := 1e6, 50e6, 0.100, 0.10, 0.8
	nack := NACKDeliverySeconds(bytes, bw, delay, loss)
	fec := FECDeliverySeconds(bytes, bw, delay, loss, conf)
	if fec >= nack {
		t.Fatalf("fec %v not cheaper than nack %v on a fat lossy pipe", fec, nack)
	}
	if got := DeliverySeconds(TransportAuto, bytes, bw, delay, loss, conf); got != fec {
		t.Fatalf("auto = %v, want fec %v", got, fec)
	}
	// A starved link flips the choice: redundancy bytes cost more than
	// retransmission rounds.
	bytes, bw, delay = 10e6, 1e5, 0.001
	nack = NACKDeliverySeconds(bytes, bw, delay, loss)
	fec = FECDeliverySeconds(bytes, bw, delay, loss, conf)
	if nack >= fec {
		t.Fatalf("nack %v not cheaper than fec %v on a thin short link", nack, fec)
	}
	if got := DeliverySeconds(TransportAuto, bytes, bw, delay, loss, conf); got != nack {
		t.Fatalf("auto = %v, want nack %v", got, nack)
	}
	// Dead link: infinite either way.
	if !math.IsInf(DeliverySeconds(TransportAuto, 1, 0, 0, 0, 0), 1) {
		t.Fatal("zero bandwidth must price as infinite")
	}
}
