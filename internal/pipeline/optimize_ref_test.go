package pipeline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ricsa/internal/cost"
)

// This file keeps the two dynamic programs as they stood before they were
// folded onto forward/backtrack — the column loop written out twice, once
// sharded and once serial-only — as the reference the shared recursion is
// held to, bit for bit. Test-only; nothing here is reachable from the build.

// refOptimize is the pre-collapse optimize, verbatim.
func refOptimize(g *Graph, p *Pipeline, src, dst, workers int) (*VRT, error) {
	nNodes := len(g.Nodes)
	n := len(p.Modules)
	if src < 0 || src >= nNodes || dst < 0 || dst >= nNodes {
		return nil, ErrBadEndpoints
	}
	if n == 0 {
		return nil, errors.New("pipeline: empty module list")
	}
	in := inEdgeIndex(g)

	// T[v] holds T^j(v) for the current column j; prevT the previous one.
	T := make([]float64, nNodes)
	prevT := make([]float64, nNodes)
	// choice[j][v] = node that module j's input came from (v itself for
	// direct inheritance).
	choice := make([][]int32, n)

	// Base column j = 0 (the paper's j = 1, message m_1 feeding M_2):
	// T^1(v) = c_2 m_1 / p_v + m_1 / b_{src,v} for v adjacent to src,
	// c_2 m_1 / p_src for v = src, +Inf otherwise.
	for v := range prevT {
		prevT[v] = math.Inf(1)
	}
	choice[0] = make([]int32, nNodes)
	for v := range choice[0] {
		choice[0][v] = -1
	}
	if ct := computeTime(g, p, 0, src); !math.IsInf(ct, 1) {
		prevT[src] = ct
		choice[0][src] = int32(src)
	}
	for _, e := range g.Adj[src] {
		cand := computeTime(g, p, 0, e.To) + transferTime(g, p, 0, e)
		if cand < prevT[e.To] {
			prevT[e.To] = cand
			choice[0][e.To] = int32(src)
		}
	}

	// Recursion: Eq. 9. relax computes one column slice [lo, hi); slices
	// only read prevT and write disjoint ranges of T and ch.
	relax := func(j int, ch []int32, T, prevT []float64, lo, hi int) {
		for v := lo; v < hi; v++ {
			T[v] = math.Inf(1)
			ch[v] = -1
			ct := computeTime(g, p, j, v)
			if math.IsInf(ct, 1) {
				continue
			}
			// Sub-case 1: inherit — module j joins the group at v.
			if best := prevT[v] + ct; best < T[v] {
				T[v] = best
				ch[v] = int32(v)
			}
			// Sub-case 2: module j starts a new group at v, its input
			// crossing an incident link from a neighbor u.
			for _, ie := range in[v] {
				u := int(ie.From)
				if u == v || math.IsInf(prevT[u], 1) {
					continue
				}
				if cand := prevT[u] + ct + transferTime(g, p, j, ie.E); cand < T[v] {
					T[v] = cand
					ch[v] = ie.From
				}
			}
		}
	}
	for j := 1; j < n; j++ {
		choice[j] = make([]int32, nNodes)
		if workers <= 1 {
			relax(j, choice[j], T, prevT, 0, nNodes)
		} else {
			var wg sync.WaitGroup
			chunk := (nNodes + workers - 1) / workers
			for lo := 0; lo < nNodes; lo += chunk {
				hi := lo + chunk
				if hi > nNodes {
					hi = nNodes
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					relax(j, choice[j], T, prevT, lo, hi)
				}(lo, hi)
			}
			wg.Wait()
		}
		T, prevT = prevT, T
	}

	total := prevT[dst]
	if math.IsInf(total, 1) {
		return nil, ErrNoFeasibleMapping
	}

	// Backtrack the node of every module.
	nodes := make([]int, n)
	cur := dst
	for j := n - 1; j >= 0; j-- {
		prev := int(choice[j][cur])
		if prev < 0 {
			return nil, fmt.Errorf("pipeline: broken backtrack at module %d", j)
		}
		nodes[j] = cur
		cur = prev
	}
	if cur != src {
		return nil, fmt.Errorf("pipeline: backtrack ended at %s, want source %s",
			g.Nodes[cur].Name, g.Nodes[src].Name)
	}
	return buildVRT(g, p, src, nodes, total), nil
}

// refOptimizeMultiTiered is the pre-collapse OptimizeMultiTiered, verbatim:
// its own serial prefix DP, backtrack and grouping.
func refOptimizeMultiTiered(g *Graph, p *Pipeline, src int, dsts []int, maxTier cost.Tier) (*VRTree, error) {
	nNodes := len(g.Nodes)
	n := len(p.Modules)
	if src < 0 || src >= nNodes || len(dsts) == 0 {
		return nil, ErrBadEndpoints
	}
	if maxTier >= cost.NumTiers {
		maxTier = cost.NumTiers - 1
	}
	seen := make(map[int]bool, len(dsts))
	uniq := make([]int, 0, len(dsts))
	for _, d := range dsts {
		if d < 0 || d >= nNodes {
			return nil, ErrBadEndpoints
		}
		if !seen[d] {
			seen[d] = true
			uniq = append(uniq, d)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("pipeline: empty module list")
	}
	split := RenderSplit(p)

	// Forward prefix DP: P[v] is the minimal delay of mapping the shared
	// prefix (modules [0, split)) onto a path from src ending at v, with
	// full backtrack choices. For split == 0 the "prefix" is just the raw
	// dataset sitting at the source.
	P := make([]float64, nNodes)
	choice := make([][]int32, split)
	for v := range P {
		P[v] = math.Inf(1)
	}
	if split == 0 {
		P[src] = 0
	} else {
		in := inEdgeIndex(g)
		choice[0] = make([]int32, nNodes)
		for v := range choice[0] {
			choice[0][v] = -1
		}
		if ct := computeTime(g, p, 0, src); !math.IsInf(ct, 1) {
			P[src] = ct
			choice[0][src] = int32(src)
		}
		for _, e := range g.Adj[src] {
			cand := computeTime(g, p, 0, e.To) + transferTime(g, p, 0, e)
			if cand < P[e.To] {
				P[e.To] = cand
				choice[0][e.To] = int32(src)
			}
		}
		T := make([]float64, nNodes)
		for j := 1; j < split; j++ {
			choice[j] = make([]int32, nNodes)
			for v := 0; v < nNodes; v++ {
				T[v] = math.Inf(1)
				choice[j][v] = -1
				ct := computeTime(g, p, j, v)
				if math.IsInf(ct, 1) {
					continue
				}
				if best := P[v] + ct; best < T[v] {
					T[v] = best
					choice[j][v] = int32(v)
				}
				for _, ie := range in[v] {
					u := int(ie.From)
					if u == v || math.IsInf(P[u], 1) {
						continue
					}
					if cand := P[u] + ct + transferTime(g, p, j, ie.E); cand < T[v] {
						T[v] = cand
						choice[j][v] = ie.From
					}
				}
			}
			P, T = T, P
		}
	}

	// Backward tail DP per (destination, tier): B[v] is the minimal delay
	// of mapping the tail modules [split, n) given their input resides at
	// v, ending with the last module at the destination, with the tail
	// payloads scaled to the tier. The recursion mirrors the forward one
	// exactly (at most one edge crossing per module), so a full-resolution
	// tree over one destination prices identically to Optimize.
	nTiers := int(maxTier) + 1
	scaledP := make([]*Pipeline, nTiers)
	for t := 0; t < nTiers; t++ {
		scaledP[t] = tierScaledPipeline(p, split, cost.Tier(t))
	}
	tails := make([][][]float64, len(uniq))      // [dst][tier] B at column split
	tailChoice := make([][][][]int32, len(uniq)) // [dst][tier] where module j runs, given input at v
	for di, d := range uniq {
		tails[di] = make([][]float64, nTiers)
		tailChoice[di] = make([][][]int32, nTiers)
		for t := 0; t < nTiers; t++ {
			tp := scaledP[t]
			B := make([]float64, nNodes)
			next := make([]float64, nNodes)
			ch := make([][]int32, n-split)
			for v := range next {
				next[v] = math.Inf(1)
			}
			next[d] = 0
			for j := n - 1; j >= split; j-- {
				cj := make([]int32, nNodes)
				for v := 0; v < nNodes; v++ {
					B[v] = math.Inf(1)
					cj[v] = -1
					// Run module j here.
					if ct := computeTime(g, tp, j, v); !math.IsInf(ct, 1) && !math.IsInf(next[v], 1) {
						B[v] = ct + next[v]
						cj[v] = int32(v)
					}
					// Or ship its input over one edge and run it there.
					for _, e := range g.Adj[v] {
						u := e.To
						ct := computeTime(g, tp, j, u)
						if math.IsInf(ct, 1) || math.IsInf(next[u], 1) {
							continue
						}
						if cand := transferTime(g, tp, j, e) + ct + next[u]; cand < B[v] {
							B[v] = cand
							cj[v] = int32(u)
						}
					}
				}
				ch[j-split] = cj
				B, next = next, B
			}
			tails[di][t] = append([]float64(nil), next...)
			tailChoice[di][t] = ch
		}
	}

	// Per-branch tier adoption: at each candidate terminal every branch
	// takes the tier minimizing tail delay plus fidelity penalty, ties to
	// the higher-fidelity rung. The penalty biases selection only — the
	// delay the tier choice is scored (and later reported) with is the
	// real tail delay at the chosen tier.
	bestTier := func(di, v int) (cost.Tier, float64, float64) {
		tier, scored, delay := cost.TierFull, math.Inf(1), math.Inf(1)
		for t := 0; t < nTiers; t++ {
			tail := tails[di][t][v]
			if math.IsInf(tail, 1) {
				continue
			}
			if cand := tail + cost.TierPenaltySeconds(cost.Tier(t)); cand < scored {
				tier, scored, delay = cost.Tier(t), cand, tail
			}
		}
		return tier, scored, delay
	}

	// Shared terminal: the node minimizing the slowest branch under the
	// penalty-inclusive objective.
	vstar, best := -1, math.Inf(1)
	for v := 0; v < nNodes; v++ {
		if math.IsInf(P[v], 1) {
			continue
		}
		worst := 0.0
		feasible := true
		for di := range uniq {
			_, scored, _ := bestTier(di, v)
			if math.IsInf(scored, 1) {
				feasible = false
				break
			}
			if tot := P[v] + scored; tot > worst {
				worst = tot
			}
		}
		if feasible && worst < best {
			best = worst
			vstar = v
		}
	}
	if vstar < 0 {
		return nil, ErrNoFeasibleMapping
	}

	tree := &VRTree{SharedDelay: P[vstar]}

	// Shared groups: backtrack the prefix path ending at vstar.
	prefixNodes := make([]int, split)
	cur := vstar
	for j := split - 1; j >= 0; j-- {
		prev := int(choice[j][cur])
		if prev < 0 {
			return nil, fmt.Errorf("pipeline: broken tree backtrack at module %d", j)
		}
		prefixNodes[j] = cur
		cur = prev
	}
	if cur != src {
		return nil, fmt.Errorf("pipeline: tree backtrack ended at %s, want source %s",
			g.Nodes[cur].Name, g.Nodes[src].Name)
	}
	tree.Shared = append(tree.Shared, Assignment{Node: g.Nodes[src].Name, Modules: []string{"Source"}})
	cur = src
	for k, v := range prefixNodes {
		if v != cur {
			tree.Shared = append(tree.Shared, Assignment{Node: g.Nodes[v].Name})
			cur = v
		}
		last := &tree.Shared[len(tree.Shared)-1]
		last.Modules = append(last.Modules, p.Modules[k].Name)
	}

	// Branches: replay each destination's tail decisions from vstar at its
	// adopted tier.
	for di, d := range uniq {
		tier, _, tailDelay := bestTier(di, vstar)
		br := VRTBranch{Dst: g.Nodes[d].Name, Delay: P[vstar] + tailDelay, Tier: tier}
		at := vstar
		var groups []Assignment
		for j := split; j < n; j++ {
			w := int(tailChoice[di][tier][j-split][at])
			if w < 0 {
				return nil, fmt.Errorf("pipeline: broken branch backtrack at module %d", j)
			}
			if len(groups) == 0 || groups[len(groups)-1].Node != g.Nodes[w].Name {
				groups = append(groups, Assignment{Node: g.Nodes[w].Name})
			}
			last := &groups[len(groups)-1]
			last.Modules = append(last.Modules, p.Modules[j].Name)
			at = w
		}
		if at != d {
			return nil, fmt.Errorf("pipeline: branch for %s ended at %s", g.Nodes[d].Name, g.Nodes[at].Name)
		}
		br.Groups = groups
		if br.Delay > tree.Delay {
			tree.Delay = br.Delay
		}
		tree.Branches = append(tree.Branches, br)
	}
	return tree, nil
}

// refInstance draws one optimizer instance: a connected random graph with
// some lossy and some dead edges under a random transport mode, a pipeline
// whose render-class module (and so RenderSplit) lands anywhere, a source,
// one to four destinations with an occasional repeat, and a tier budget.
func refInstance(rng *rand.Rand, nNodes int) (g *Graph, p *Pipeline, src int, dsts []int, maxTier cost.Tier) {
	g = RandomGraph(rng, nNodes, 1.5*rng.Float64())
	g.Transport = cost.TransportMode(rng.Intn(3))
	for u := range g.Adj {
		for i := range g.Adj[u] {
			switch e := &g.Adj[u][i]; {
			case rng.Float64() < 0.3:
				e.Loss, e.LossConf = 0.2*rng.Float64(), rng.Float64()
			case rng.Float64() < 0.03:
				e.Bandwidth = 0
			}
		}
	}
	nMod := 1 + rng.Intn(8)
	p = RandomPipeline(rng, nMod, rng.Intn(2) == 0)
	if rng.Intn(3) == 0 {
		p.Modules[rng.Intn(nMod)].NeedsGPU = true
	}
	src = rng.Intn(nNodes)
	dsts = make([]int, 1+rng.Intn(4))
	for i := range dsts {
		// A module crosses at most one edge, so a destination more than
		// nMod hops out is infeasible: walk there, mostly.
		d := src
		for hop := rng.Intn(nMod + 1); hop > 0 && rng.Intn(10) > 0; hop-- {
			d = g.Adj[d][rng.Intn(len(g.Adj[d]))].To
		}
		if rng.Intn(10) == 0 {
			d = rng.Intn(nNodes)
		}
		dsts[i] = d
	}
	if len(dsts) > 1 && rng.Intn(4) == 0 {
		dsts[len(dsts)-1] = dsts[0]
	}
	return g, p, src, dsts, cost.Tier(rng.Intn(cost.NumTiers))
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstReference holds both solvers to their pre-collapse copies on
// one instance: same error, bit-equal delays, equal groups and tiers.
func checkAgainstReference(t *testing.T, label string, g *Graph, p *Pipeline, src int, dsts []int, maxTier cost.Tier, workers []int) (feasible bool) {
	t.Helper()
	for _, w := range workers {
		want, wantErr := refOptimize(g, p, src, dsts[0], w)
		got, gotErr := optimize(g, p, src, dsts[0], w)
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("%s workers=%d: optimize error %v, reference %v", label, w, gotErr, wantErr)
		}
		if wantErr == nil && (!bitsEqual(got.Delay, want.Delay) || !reflect.DeepEqual(got.Groups, want.Groups)) {
			t.Fatalf("%s workers=%d: optimize %v (%x), reference %v (%x)", label, w,
				got, math.Float64bits(got.Delay), want, math.Float64bits(want.Delay))
		}
	}
	// The live session consults through the one-destination full-resolution
	// tree where it used to call Optimize: same feasibility, same placement,
	// the delay equal to within the prefix + tail re-association.
	vrt, vrtErr := Optimize(g, p, src, dsts[0])
	one, oneErr := OptimizeMultiTiered(g, p, src, dsts[:1], cost.TierFull)
	if !sameErr(oneErr, vrtErr) {
		t.Fatalf("%s: K=1 tree error %v, Optimize %v", label, oneErr, vrtErr)
	}
	if vrtErr == nil {
		var place []string
		for _, grp := range vrt.Groups {
			for range grp.Modules {
				place = append(place, grp.Node)
			}
		}
		if !reflect.DeepEqual(one.BranchPlacement(0), place[1:]) || math.Abs(one.Delay-vrt.Delay) > 1e-12*vrt.Delay {
			t.Fatalf("%s: K=1 tree %v, Optimize %v", label, one, vrt)
		}
	}
	want, wantErr := refOptimizeMultiTiered(g, p, src, dsts, maxTier)
	got, gotErr := OptimizeMultiTiered(g, p, src, dsts, maxTier)
	if !sameErr(gotErr, wantErr) {
		t.Fatalf("%s: tree error %v, reference %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		return false
	}
	if !bitsEqual(got.Delay, want.Delay) || !bitsEqual(got.SharedDelay, want.SharedDelay) ||
		!reflect.DeepEqual(got.Shared, want.Shared) || len(got.Branches) != len(want.Branches) {
		t.Fatalf("%s: tree %v, reference %v", label, got, want)
	}
	for i, wb := range want.Branches {
		gb := got.Branches[i]
		if gb.Dst != wb.Dst || gb.Tier != wb.Tier || !bitsEqual(gb.Delay, wb.Delay) || !reflect.DeepEqual(gb.Groups, wb.Groups) {
			t.Fatalf("%s branch %d: %+v, reference %+v", label, i, gb, wb)
		}
	}
	return true
}

// TestCollapsedRecursionMatchesReference sweeps seeded instances — 4-83
// nodes, 1-8 modules, 1-4 destinations, every transport mode and tier
// budget, lossy and dead edges — and a handful of graphs past
// DefaultParallelThreshold, where the tree's prefix columns now shard across
// goroutines and must still equal the serial reference.
func TestCollapsedRecursionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	feasible := 0
	const small = 4000
	for i := 0; i < small; i++ {
		g, p, src, dsts, maxTier := refInstance(rng, 4+rng.Intn(80))
		if checkAgainstReference(t, fmt.Sprintf("instance %d", i), g, p, src, dsts, maxTier, []int{1, 3}) {
			feasible++
		}
	}
	t.Logf("%d of %d small instances feasible", feasible, small)
	if feasible < small/4 {
		t.Fatalf("only %d of %d instances feasible: the sweep compares mostly errors", feasible, small)
	}
	for i, nNodes := range []int{256, 300, 384, 517} {
		g, p, src, dsts, maxTier := refInstance(rng, nNodes)
		checkAgainstReference(t, fmt.Sprintf("large %d", i), g, p, src, dsts, maxTier, []int{1, 2, 5})
	}
}
