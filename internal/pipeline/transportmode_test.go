package pipeline

import (
	"testing"

	"ricsa/internal/cost"
)

// lossyPair builds src -> dst with one module and a lossy direct edge.
func lossyPair(loss, conf float64) (*Graph, *Pipeline) {
	g := NewGraph(
		Node{Name: "src", Power: 1},
		Node{Name: "dst", Power: 1},
	)
	g.AddEdge(0, 1, 1e6, 0.050)
	g.Adj[0][0].Loss = loss
	g.Adj[0][0].LossConf = conf
	p := &Pipeline{
		Name:        "p",
		SourceBytes: 1e5,
		Modules:     []Module{{Name: "view", RefTime: 0.01, OutBytes: 1e4}},
	}
	return g, p
}

// TestOptimizePricesTransportMode: the DP's predicted delay reflects the
// graph's transport mode on lossy edges, and auto never prices above
// either pure mode.
func TestOptimizePricesTransportMode(t *testing.T) {
	delays := map[cost.TransportMode]float64{}
	for _, m := range []cost.TransportMode{cost.TransportNACK, cost.TransportFEC, cost.TransportAuto} {
		g, p := lossyPair(0.2, 0.5)
		g.Transport = m
		vrt, err := Optimize(g, p, 0, 1)
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		delays[m] = vrt.Delay
	}
	if delays[cost.TransportNACK] == delays[cost.TransportFEC] {
		t.Fatal("loss must price the two transport modes differently")
	}
	min := delays[cost.TransportNACK]
	if delays[cost.TransportFEC] < min {
		min = delays[cost.TransportFEC]
	}
	if delays[cost.TransportAuto] != min {
		t.Fatalf("auto delay %v, want min(%v, %v)", delays[cost.TransportAuto],
			delays[cost.TransportNACK], delays[cost.TransportFEC])
	}

	// Lossless, the historical prediction is preserved bit-for-bit in
	// every mode.
	var base float64
	for i, m := range []cost.TransportMode{cost.TransportNACK, cost.TransportFEC, cost.TransportAuto} {
		g, p := lossyPair(0, 0)
		g.Transport = m
		vrt, err := Optimize(g, p, 0, 1)
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		if i == 0 {
			base = vrt.Delay
		} else if vrt.Delay != base {
			t.Fatalf("lossless mode %v delay %v differs from NACK %v", m, vrt.Delay, base)
		}
	}
}

// TestFingerprintCoversTransportFields: loss estimates and the transport
// mode must change both fingerprint branches, or the optimizer cache
// would serve mappings priced under stale conditions.
func TestFingerprintCoversTransportFields(t *testing.T) {
	g, _ := lossyPair(0.1, 0.9)
	content := g.Fingerprint()
	g.Adj[0][0].Loss = 0.2
	if g.Fingerprint() == content {
		t.Fatal("content fingerprint ignores Loss")
	}
	g.Adj[0][0].LossConf = 0.1
	lossFP := g.Fingerprint()
	g.Transport = cost.TransportFEC
	if g.Fingerprint() == lossFP {
		t.Fatal("content fingerprint ignores Transport")
	}

	g.Rev = NextGraphRev()
	stamped := g.Fingerprint()
	g.Transport = cost.TransportAuto
	if g.Fingerprint() == stamped {
		t.Fatal("Rev-stamped fingerprint ignores Transport")
	}
}

// TestApplyEdgeUpdatesCarriesLossAndMode: patches propagate the loss
// estimate and the snapshot inherits the transport mode.
func TestApplyEdgeUpdatesCarriesLossAndMode(t *testing.T) {
	g, _ := lossyPair(0.1, 0.9)
	g.Transport = cost.TransportAuto
	out := g.ApplyEdgeUpdates([]EdgeUpdate{
		{From: 0, To: 1, Bandwidth: 2e6, Delay: 0.040, Loss: 0.05, LossConf: 0.7},
		{From: 1, To: 0, Bandwidth: 1e6, Delay: 0.040, Loss: 0.02, LossConf: 0.4},
	})
	if out.Transport != cost.TransportAuto {
		t.Fatalf("snapshot transport = %v, want auto", out.Transport)
	}
	e := out.FindEdge(0, 1)
	if e == nil || e.Loss != 0.05 || e.LossConf != 0.7 {
		t.Fatalf("patched edge = %+v", e)
	}
	ins := out.FindEdge(1, 0)
	if ins == nil || ins.Loss != 0.02 || ins.LossConf != 0.4 {
		t.Fatalf("inserted edge = %+v", ins)
	}
	if g.FindEdge(0, 1).Loss != 0.1 {
		t.Fatal("original graph mutated")
	}
}
