package pipeline

import (
	"math/rand"
	"testing"
)

func updateTestGraph() *Graph {
	g := NewGraph(
		Node{Name: "a", Power: 1},
		Node{Name: "b", Power: 1, HasGPU: true},
		Node{Name: "c", Power: 1, HasGPU: true},
	)
	g.AddBiEdge(0, 1, 10e6, 0.010)
	g.AddBiEdge(1, 2, 8e6, 0.008)
	g.AddBiEdge(0, 2, 2e6, 0.020)
	g.Rev = NextGraphRev()
	return g
}

func TestApplyEdgeUpdatesPatchesWithoutMutating(t *testing.T) {
	g := updateTestGraph()
	oldRev := g.Rev
	oldBW := g.FindEdge(0, 1).Bandwidth

	g2 := g.ApplyEdgeUpdates([]EdgeUpdate{{From: 0, To: 1, Bandwidth: 1e6, Delay: 0.05}})

	if g.FindEdge(0, 1).Bandwidth != oldBW {
		t.Fatalf("original graph mutated: bandwidth %v", g.FindEdge(0, 1).Bandwidth)
	}
	if g.Rev != oldRev {
		t.Fatalf("original Rev changed: %d -> %d", oldRev, g.Rev)
	}
	if e := g2.FindEdge(0, 1); e.Bandwidth != 1e6 || e.Delay != 0.05 {
		t.Fatalf("update not applied: %+v", e)
	}
	if g2.Rev == oldRev || g2.Rev == 0 {
		t.Fatalf("copy not re-stamped: rev %d (old %d)", g2.Rev, oldRev)
	}
	if g.Fingerprint() == g2.Fingerprint() {
		t.Fatal("fingerprints equal across an edge update")
	}
	// Untouched rows are shared, touched rows are copies.
	if &g.Adj[1][0] != &g2.Adj[1][0] {
		t.Fatal("untouched adjacency row was copied")
	}
	if &g.Adj[0][0] == &g2.Adj[0][0] {
		t.Fatal("touched adjacency row is shared with the original")
	}
}

func TestApplyEdgeUpdatesInsertsMissingEdge(t *testing.T) {
	g := updateTestGraph()
	if g.FindEdge(2, 0) == nil {
		t.Fatal("fixture: expected bi-edge 2->0")
	}
	g2 := g.ApplyEdgeUpdates([]EdgeUpdate{{From: 1, To: 1, Bandwidth: 5e6, Delay: 0.001}})
	if e := g2.FindEdge(1, 1); e == nil || e.Bandwidth != 5e6 {
		t.Fatalf("absent edge not inserted: %+v", e)
	}
	if g.FindEdge(1, 1) != nil {
		t.Fatal("insertion leaked into the original graph")
	}
}

// TestApplyEdgeUpdatesCacheInteraction is the contract the central manager
// relies on: the patched snapshot is a distinct cache instance, while the
// original keeps hitting its own entries.
func TestApplyEdgeUpdatesCacheInteraction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomGraph(rng, 12, 2)
	g.Rev = NextGraphRev()
	p := RandomPipeline(rng, 4, false)
	c := NewCache(0)

	if _, err := c.Optimize(g, p, 0, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Optimize(g, p, 0, 11); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("baseline stats %+v, want 1 miss / 1 hit", st)
	}

	g2 := g.ApplyEdgeUpdates([]EdgeUpdate{{From: 0, To: g.Adj[0][0].To, Bandwidth: 1, Delay: 1}})
	if _, err := c.Optimize(g2, p, 0, 11); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("patched graph did not miss: %+v", st)
	}
	// The old snapshot still hits.
	if _, err := c.Optimize(g, p, 0, 11); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 2 {
		t.Fatalf("original snapshot stopped hitting: %+v", st)
	}
}

func TestRestamp(t *testing.T) {
	g := updateTestGraph()
	old := g.Rev
	g.Rev = NextGraphRev()
	if g.Rev == old || g.Rev == 0 {
		t.Fatalf("Restamp rev %d, old %d", g.Rev, old)
	}
}
