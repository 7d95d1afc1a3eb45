package pipeline

import (
	"math"
	"math/rand"
	"testing"

	"ricsa/internal/cost"
)

// tierFanSetup is fanSetup with one starved viewer link: v2 hangs off the
// hub over a trickle edge, so full-resolution delivery to it dominates the
// tree while a reduced tier does not.
func tierFanSetup() (*Graph, *Pipeline) {
	g, p := fanSetup()
	// Starve hub -> v2 (edge index 1 in hub's adjacency built by fanSetup).
	for i := range g.Adj[1] {
		if g.Adj[1][i].To == 3 {
			g.Adj[1][i].Bandwidth = 0.4e6
		}
	}
	for i := range g.Adj[3] {
		if g.Adj[3][i].To == 1 {
			g.Adj[3][i].Bandwidth = 0.4e6
		}
	}
	return g, p
}

// TestOptimizeMultiTieredFullResEquivalence re-pins the PR 3 invariant
// across the new dimension: with the tier budget forced to full resolution,
// the tiered tree must reproduce Optimize's mappings and prices exactly,
// for every destination.
func TestOptimizeMultiTieredFullResEquivalence(t *testing.T) {
	g, p := fanSetup()
	for dst := 1; dst < len(g.Nodes); dst++ {
		vrt, err := Optimize(g, p, 0, dst)
		if err != nil {
			t.Fatalf("dst %d: %v", dst, err)
		}
		tree, err := OptimizeMultiTiered(g, p, 0, []int{dst}, cost.TierFull)
		if err != nil {
			t.Fatalf("dst %d: %v", dst, err)
		}
		if math.Abs(tree.Delay-vrt.Delay) > 1e-9 {
			t.Fatalf("dst %d: tiered-at-full tree delay %v != path delay %v", dst, tree.Delay, vrt.Delay)
		}
		if len(tree.Branches) != 1 || tree.Branches[0].Tier != cost.TierFull {
			t.Fatalf("dst %d: branches %+v", dst, tree.Branches)
		}
		got, err := EvaluatePlacement(g, p, "src", tree.BranchPlacement(0))
		if err != nil || math.Abs(got-vrt.Delay) > 1e-9 {
			t.Fatalf("dst %d: placement prices %v (%v), want %v", dst, got, err, vrt.Delay)
		}
	}
	// Random instances: under the full-res budget no branch is degraded.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		rg := RandomGraph(rng, 12, 2)
		rp := RandomPipeline(rng, 4, true)
		dsts := []int{1 + rng.Intn(11), 1 + rng.Intn(11)}
		got, err := OptimizeMultiTiered(rg, rp, 0, dsts, cost.TierFull)
		if err != nil {
			continue
		}
		for i, b := range got.Branches {
			if b.Tier != cost.TierFull {
				t.Fatalf("trial %d branch %d: tier %v under a full-resolution budget", trial, i, b.Tier)
			}
		}
	}
}

// TestOptimizeMultiTieredDegradesConstrainedBranch: with a tier budget, the
// starved viewer's branch adopts a reduced tier and its delay drops below
// the full-resolution price, while an unconstrained viewer keeps full
// resolution; the branch delay is exactly the placement price under the
// tier-scaled pipeline.
func TestOptimizeMultiTieredDegradesConstrainedBranch(t *testing.T) {
	g, p := tierFanSetup()
	full, err := OptimizeMultiTiered(g, p, 0, []int{2, 3}, cost.TierFull)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := OptimizeMultiTiered(g, p, 0, []int{2, 3}, cost.TierQuarter)
	if err != nil {
		t.Fatal(err)
	}
	byDst := map[string]VRTBranch{}
	for _, b := range tiered.Branches {
		byDst[b.Dst] = b
	}
	if byDst["v1"].Tier != cost.TierFull {
		t.Fatalf("unconstrained viewer degraded to %v", byDst["v1"].Tier)
	}
	if byDst["v2"].Tier == cost.TierFull {
		t.Fatal("starved viewer kept full resolution despite the tier budget")
	}
	if tiered.Delay >= full.Delay {
		t.Fatalf("tiered tree delay %v not better than uniform full-res %v", tiered.Delay, full.Delay)
	}
	// Re-price each branch as a linear placement under its tier's scaled
	// pipeline: the reported delay must be exact, with no penalty leakage.
	split := RenderSplit(p)
	for i, b := range tiered.Branches {
		sp := tierScaledPipeline(p, split, b.Tier)
		got, err := EvaluatePlacement(g, sp, "src", tiered.BranchPlacement(i))
		if err != nil {
			t.Fatalf("branch %s: %v", b.Dst, err)
		}
		if math.Abs(got-b.Delay) > 1e-9 {
			t.Fatalf("branch %s: placement prices %v, reported %v", b.Dst, got, b.Delay)
		}
	}
	// The clone must carry the tier.
	if c := tiered.Clone(); c.Branches[0].Tier != tiered.Branches[0].Tier {
		t.Fatal("Clone dropped the branch tier")
	}
}

// TestOptimizeTierNeverSelectsBlackHoledEdge is the black-hole pricing
// regression test: a fast but fully black-holed direct edge must never be
// chosen while a live (slower) alternative path exists — in any transport
// mode — and a graph with only dead links must still yield a finite
// mapping (the collapse bound, not +Inf).
func TestOptimizeTierNeverSelectsBlackHoledEdge(t *testing.T) {
	build := func(mode cost.TransportMode, deadOnly bool) *Graph {
		g := NewGraph(
			Node{Name: "src", Power: 2, HasGPU: true},
			Node{Name: "relay", Power: 2, HasGPU: true},
			Node{Name: "dst", Power: 1},
		)
		g.AddBiEdge(0, 2, 100e6, 0.001) // fast direct link — black-holed
		for i := range g.Adj[0] {
			g.Adj[0][i].Loss, g.Adj[0][i].LossConf = 1.0, 0.9
		}
		for i := range g.Adj[2] {
			g.Adj[2][i].Loss, g.Adj[2][i].LossConf = 1.0, 0.9
		}
		g.AddBiEdge(0, 1, 2e6, 0.030) // slow but alive detour
		g.AddBiEdge(1, 2, 2e6, 0.030)
		if deadOnly {
			for from := range g.Adj {
				for i := range g.Adj[from] {
					g.Adj[from][i].Loss, g.Adj[from][i].LossConf = 1.0, 0.9
				}
			}
		}
		g.Transport = mode
		return g
	}
	p := &Pipeline{SourceBytes: 4e6, Modules: []Module{
		{Name: "Render", RefTime: 0.05, OutBytes: 1e6, NeedsGPU: true},
		{Name: "Deliver", RefTime: 0.01, OutBytes: 1e6},
	}}
	for _, mode := range []cost.TransportMode{cost.TransportNACK, cost.TransportFEC, cost.TransportAuto} {
		g := build(mode, false)
		vrt, err := Optimize(g, p, 0, 2)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		path := vrt.Path()
		if len(path) < 3 || path[1] != "relay" {
			t.Fatalf("mode %v: optimizer crossed the black-holed edge: %v", mode, vrt)
		}
		tree, err := OptimizeMultiTiered(g, p, 0, []int{2}, cost.TierQuarter)
		if err != nil {
			t.Fatalf("mode %v tree: %v", mode, err)
		}
		bp := tree.BranchPath(0)
		if len(bp) < 3 || bp[1] != "relay" {
			t.Fatalf("mode %v: tiered tree crossed the black-holed edge: %v", mode, tree)
		}
		// Only dead links: the DP must still complete with a finite delay.
		dead := build(mode, true)
		vrtDead, err := Optimize(dead, p, 0, 2)
		if err != nil {
			t.Fatalf("mode %v dead-only: %v", mode, err)
		}
		if math.IsInf(vrtDead.Delay, 1) || vrtDead.Delay < cost.BlackHoleBudgetSeconds {
			t.Fatalf("mode %v dead-only delay %v, want finite >= collapse budget", mode, vrtDead.Delay)
		}
	}
}
