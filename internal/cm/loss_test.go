package cm

import (
	"testing"

	"ricsa/internal/cost"
	"ricsa/internal/netsim"
)

// lossyTestbed applies a uniform per-packet loss probability to every link.
func lossyTestbed(seed int64, loss float64) *netsim.Network {
	tb := netsim.DefaultTestbed()
	tb.Loss = loss
	tb.CrossMean = 0.9
	return netsim.Testbed(seed, tb)
}

// TestLossEstimatesSurface: the initial sweep observes the seeded loss
// process on every edge and surfaces it through Estimates, Status, and
// the published graph.
func TestLossEstimatesSurface(t *testing.T) {
	m := New(lossyTestbed(5, 0.05), testConfig())
	// A single probe on one edge can legitimately draw zero losses; the
	// sweep as a whole must still see the process.
	positive, total := 0, 0
	for key, est := range m.Estimates() {
		total++
		if est.Loss > 0 {
			positive++
		}
		if est.Loss > 0.25 {
			t.Fatalf("edge %s loss estimate %v implausible for a 5%% process", key, est.Loss)
		}
		if est.LossConf < 0 || est.LossConf > 1 {
			t.Fatalf("edge %s loss confidence %v outside [0, 1]", key, est.LossConf)
		}
	}
	if positive*2 < total {
		t.Fatalf("only %d of %d edges observed the 5%% loss process", positive, total)
	}
	statusPositive := 0
	for _, es := range m.Status().Edges {
		if es.Loss > 0 {
			statusPositive++
		}
	}
	if statusPositive != positive {
		t.Fatalf("status surfaces %d lossy edges, estimates %d", statusPositive, positive)
	}
	graphPositive := 0
	for _, row := range m.Graph().Adj {
		for _, e := range row {
			if e.Loss > 0 {
				if e.LossConf <= 0 {
					t.Fatalf("published lossy edge with zero confidence: %+v", e)
				}
				graphPositive++
			}
		}
	}
	if graphPositive != positive {
		t.Fatalf("published graph carries %d lossy edges, estimates %d", graphPositive, positive)
	}
	// A lossless network keeps zero loss everywhere.
	clean := New(quietTestbed(5), testConfig())
	for key, est := range clean.Estimates() {
		if est.Loss != 0 {
			t.Fatalf("lossless edge %s reports loss %v", key, est.Loss)
		}
	}
}

// TestTransportModePublish: the configured mode is stamped onto the
// construction-time snapshot and survives a tolerance-gated republish.
func TestTransportModePublish(t *testing.T) {
	cfg := testConfig()
	cfg.Transport = cost.TransportAuto
	m := New(lossyTestbed(6, 0.03), cfg)
	g := m.Graph()
	if g.Transport != cost.TransportAuto {
		t.Fatalf("published transport %v, want auto", g.Transport)
	}

	// A drastic condition change crossing the tolerance republishes.
	for _, l := range m.Network().Links() {
		l.AB.SetLoss(0.30)
		l.BA.SetLoss(0.30)
	}
	m.MeasureAll()
	g2 := m.Graph()
	if g2.Rev == g.Rev {
		t.Fatal("loss surge did not republish")
	}
	if g2.Transport != cost.TransportAuto {
		t.Fatal("republished snapshot dropped the transport mode")
	}
}
