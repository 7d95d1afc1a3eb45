package pipeline

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ricsa/internal/cost"
)

// fanSetup builds a small fan topology: a source, a GPU render hub adjacent
// to every viewer, and three viewer hosts. The pipeline is the canonical
// Filter/Extract/Render/Deliver chain.
func fanSetup() (*Graph, *Pipeline) {
	g := NewGraph(
		Node{Name: "src", Power: 1},
		Node{Name: "hub", Power: 4, HasGPU: true},
		Node{Name: "v1", Power: 1},
		Node{Name: "v2", Power: 1},
		Node{Name: "v3", Power: 1, HasGPU: true},
	)
	g.AddBiEdge(0, 1, 12e6, 0.010) // src - hub
	g.AddBiEdge(1, 2, 10e6, 0.005) // hub - v1
	g.AddBiEdge(1, 3, 8e6, 0.008)  // hub - v2
	g.AddBiEdge(1, 4, 6e6, 0.012)  // hub - v3
	g.AddBiEdge(0, 4, 2e6, 0.020)  // slow direct src - v3
	p := &Pipeline{
		Name:        "fan",
		SourceBytes: 24e6,
		Modules: []Module{
			{Name: "Filter", RefTime: 0.2, OutBytes: 24e6},
			{Name: "Extract", RefTime: 2, OutBytes: 6e6},
			{Name: "Render", RefTime: 1, OutBytes: 1e6, NeedsGPU: true},
			{Name: "Deliver", RefTime: 0.01, OutBytes: 1e6},
		},
	}
	return g, p
}

func TestRenderSplit(t *testing.T) {
	_, p := fanSetup()
	if got := RenderSplit(p); got != 3 {
		t.Fatalf("RenderSplit = %d, want 3 (Deliver is the tail)", got)
	}
	noGPU := &Pipeline{SourceBytes: 1e6, Modules: []Module{
		{Name: "A", RefTime: 1, OutBytes: 1e6},
		{Name: "B", RefTime: 1, OutBytes: 1e6},
	}}
	if got := RenderSplit(noGPU); got != 1 {
		t.Fatalf("RenderSplit without GPU stage = %d, want n-1", got)
	}
	single := &Pipeline{SourceBytes: 1e6, Modules: []Module{{Name: "A", RefTime: 1, OutBytes: 1e6}}}
	if got := RenderSplit(single); got != 0 {
		t.Fatalf("RenderSplit single module = %d, want 0", got)
	}
}

// TestOptimizeMultiSingleDestinationMatchesOptimize: the minimax objective
// over one destination is the plain shortest loop.
func TestOptimizeMultiSingleDestinationMatchesOptimize(t *testing.T) {
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
			t.Fatalf("dst %d: tree delay %v != path delay %v", dst, tree.Delay, vrt.Delay)
		}
		if len(tree.Branches) != 1 || tree.Branches[0].Dst != g.Nodes[dst].Name {
			t.Fatalf("dst %d: branches %+v", dst, tree.Branches)
		}
	}
}

// TestOptimizeMultiSharedTree: three viewers share one render placement,
// every branch ends at its viewer, and the tree delay is the slowest branch.
func TestOptimizeMultiSharedTree(t *testing.T) {
	g, p := fanSetup()
	tree, err := OptimizeMultiTiered(g, p, 0, []int{2, 3, 4}, cost.TierFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Branches) != 3 {
		t.Fatalf("branches = %d, want 3", len(tree.Branches))
	}
	shared := tree.SharedPath()
	if shared[0] != "src" {
		t.Fatalf("shared path %v does not start at src", shared)
	}
	terminal := shared[len(shared)-1]
	if terminal != "hub" {
		t.Fatalf("shared terminal %q, want the hub (only GPU adjacent to all viewers)", terminal)
	}
	worst := 0.0
	for i, b := range tree.Branches {
		path := tree.BranchPath(i)
		if path[0] != "src" || path[len(path)-1] != b.Dst {
			t.Fatalf("branch %s path %v", b.Dst, path)
		}
		if b.Delay < tree.SharedDelay {
			t.Fatalf("branch %s delay %v below shared prefix delay %v", b.Dst, b.Delay, tree.SharedDelay)
		}
		if b.Delay > worst {
			worst = b.Delay
		}
		// Each branch, evaluated as a linear placement, must price exactly
		// at its reported delay under the same cost model.
		got, err := EvaluatePlacement(g, p, "src", tree.BranchPlacement(i))
		if err != nil {
			t.Fatalf("branch %s placement: %v", b.Dst, err)
		}
		if math.Abs(got-b.Delay) > 1e-9 {
			t.Fatalf("branch %s evaluates to %v, reported %v", b.Dst, got, b.Delay)
		}
	}
	if tree.Delay != worst {
		t.Fatalf("tree delay %v != slowest branch %v", tree.Delay, worst)
	}
	// Sharing cannot make the slowest viewer faster than its own optimum,
	// and each branch is at least its independent optimum.
	for i, b := range tree.Branches {
		dst := g.NodeIndex(b.Dst)
		vrt, err := Optimize(g, p, 0, dst)
		if err != nil {
			t.Fatal(err)
		}
		if b.Delay+1e-9 < vrt.Delay {
			t.Fatalf("branch %d beats its independent optimum: %v < %v", i, b.Delay, vrt.Delay)
		}
	}
}

// TestOptimizeMultiDeduplicatesDestinations: repeated viewers on one host
// collapse to one branch and the same cache key.
func TestOptimizeMultiDeduplicatesDestinations(t *testing.T) {
	g, p := fanSetup()
	tree, err := OptimizeMultiTiered(g, p, 0, []int{2, 2, 3, 2}, cost.TierFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Branches) != 2 {
		t.Fatalf("branches = %d, want 2 after dedup", len(tree.Branches))
	}
	if a, b := dstSetFingerprint([]int{2, 3}), dstSetFingerprint([]int{3, 2, 2}); a != b {
		t.Fatalf("destination-set fingerprint is order/duplicate sensitive: %x vs %x", a, b)
	}
	if a, b := dstSetFingerprint([]int{2, 3}), dstSetFingerprint([]int{2, 4}); a == b {
		t.Fatal("distinct destination sets collide")
	}
}

func TestOptimizeMultiBadEndpoints(t *testing.T) {
	g, p := fanSetup()
	if _, err := OptimizeMultiTiered(g, p, -1, []int{1}, cost.TierFull); err != ErrBadEndpoints {
		t.Fatalf("bad src: %v", err)
	}
	if _, err := OptimizeMultiTiered(g, p, 0, nil, cost.TierFull); err != ErrBadEndpoints {
		t.Fatalf("empty dsts: %v", err)
	}
	if _, err := OptimizeMultiTiered(g, p, 0, []int{99}, cost.TierFull); err != ErrBadEndpoints {
		t.Fatalf("bad dst: %v", err)
	}
}

func TestOptimizeMultiInfeasible(t *testing.T) {
	// No GPU anywhere: the render module can never run.
	g := NewGraph(Node{Name: "a", Power: 1}, Node{Name: "b", Power: 1})
	g.AddBiEdge(0, 1, 1e6, 0.01)
	p := &Pipeline{SourceBytes: 1e6, Modules: []Module{
		{Name: "Render", RefTime: 1, OutBytes: 1e6, NeedsGPU: true},
		{Name: "Deliver", RefTime: 0.1, OutBytes: 1e6},
	}}
	if _, err := OptimizeMultiTiered(g, p, 0, []int{1}, cost.TierFull); err != ErrNoFeasibleMapping {
		t.Fatalf("want ErrNoFeasibleMapping, got %v", err)
	}
}

// TestOptimizeMultiRandomConsistency: on random graphs, single-destination
// trees always match Optimize, and multi-destination trees never beat any
// destination's independent optimum.
func TestOptimizeMultiRandomConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g := RandomGraph(rng, 12, 2)
		p := RandomPipeline(rng, 4, true)
		dsts := []int{1 + rng.Intn(11), 1 + rng.Intn(11), 1 + rng.Intn(11)}
		tree, err := OptimizeMultiTiered(g, p, 0, dsts, cost.TierFull)
		if err != nil {
			continue // infeasible instances are fine
		}
		for i, b := range tree.Branches {
			dst := g.NodeIndex(b.Dst)
			vrt, err := Optimize(g, p, 0, dst)
			if err != nil {
				t.Fatalf("trial %d: branch feasible but path not: %v", trial, err)
			}
			if b.Delay+1e-9 < vrt.Delay {
				t.Fatalf("trial %d branch %d: %v beats independent optimum %v", trial, i, b.Delay, vrt.Delay)
			}
			got, err := EvaluatePlacement(g, p, g.Nodes[0].Name, tree.BranchPlacement(i))
			if err != nil || math.Abs(got-b.Delay) > 1e-6 {
				t.Fatalf("trial %d branch %d: placement evaluates to %v (%v), reported %v",
					trial, i, got, err, b.Delay)
			}
		}
	}
}

// TestCacheOptimizeMulti: one miss per distinct destination set, hits for
// repeats regardless of viewer join order, single-flight under concurrency.
func TestCacheOptimizeMultiTiered(t *testing.T) {
	g, p := fanSetup()
	g.Rev = NextGraphRev()
	c := NewCache(0)

	tree, err := c.OptimizeMultiTiered(g, p, 0, []int{2, 3, 4}, cost.TierFull)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first consult: %+v", st)
	}
	again, err := c.OptimizeMultiTiered(g, p, 0, []int{4, 2, 3}, cost.TierFull) // same set, different order
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("reordered set missed: %+v", st)
	}
	if again.Delay != tree.Delay {
		t.Fatalf("cached tree delay %v != %v", again.Delay, tree.Delay)
	}
	// The returned tree is a private copy.
	again.Branches[0].Dst = "mutated"
	third, _ := c.OptimizeMultiTiered(g, p, 0, []int{2, 3, 4}, cost.TierFull)
	if third.Branches[0].Dst == "mutated" {
		t.Fatal("cache handed out an aliased tree")
	}
	// Single vs multi keys for the same endpoint never collide.
	if _, err := c.Optimize(g, p, 0, 2); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("single-dst consult did not miss separately: %+v", st)
	}

	var wg sync.WaitGroup
	c2 := NewCache(0)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c2.OptimizeMultiTiered(g, p, 0, []int{2, 3, 4}, cost.TierFull); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := c2.Stats(); st.Misses != 1 {
		t.Fatalf("concurrent consults ran the DP %d times, want 1", st.Misses)
	}
}

// TestCacheTreeBranchOrderFollowsCaller: the cache key is order-insensitive,
// so a hit must still come back in the *caller's* deduplicated request order
// — the order the uncached solver documents — not the first caller's.
func TestCacheTreeBranchOrderFollowsCaller(t *testing.T) {
	g, p := fanSetup()
	g.Rev = NextGraphRev()
	set := []int{1, 2, 3, 4} // the hub and the three viewer hosts
	c := NewCache(0)
	if _, err := c.OptimizeMultiTiered(g, p, 0, set, cost.TierDelta); err != nil {
		t.Fatal(err)
	}
	var permute func(k int, visit func([]int))
	permute = func(k int, visit func([]int)) {
		if k == len(set) {
			visit(set)
			return
		}
		for i := k; i < len(set); i++ {
			set[k], set[i] = set[i], set[k]
			permute(k+1, visit)
			set[k], set[i] = set[i], set[k]
		}
	}
	perms := 0
	permute(0, func(order []int) {
		perms++
		for _, dsts := range [][]int{
			append([]int(nil), order...),
			{order[0], order[1], order[0], order[2], order[3], order[1]}, // repeats keep first position
		} {
			want, err := OptimizeMultiTiered(g, p, 0, dsts, cost.TierDelta)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.OptimizeMultiTiered(g, p, 0, dsts, cost.TierDelta)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dsts %v: cached %v, direct %v", dsts, got, want)
			}
		}
	})
	if st := c.Stats(); perms != 24 || st.Misses != 1 || st.Hits != 48 {
		t.Fatalf("%d permutations, cache %+v: want 24 permutations answered by 1 miss and 48 hits", perms, st)
	}
}
