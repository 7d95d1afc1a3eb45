package pipeline

import (
	"fmt"
	"math"

	"ricsa/internal/cost"
)

// This file grows the optimizer from paths to shared trees: one data source
// fanning out to several viewer hosts. The pipeline prefix up to and
// including the render stage is executed once, at one shared terminal node;
// each destination then receives its own tail (delivery) branch. The result
// is a visualization routing *tree* instead of a table row per viewer: the
// simulation and rendering cost is paid once, and only the per-destination
// branches differ.
//
// The optimization is exact for this tree shape: the forward dynamic program
// (forward, the one Eq. 9-10 recursion Optimize also runs) prices every
// candidate shared terminal, a backward dynamic program per destination
// prices every tail from every candidate terminal, and the terminal
// minimizing the *slowest* branch — the delay that gates the monitoring loop
// when every viewer must receive the frame — is selected. With a single
// destination the minimax objective degenerates to the plain shortest loop,
// so a one-destination full-resolution tree picks Optimize(g, p, src, d)'s
// placement; its delay is the same sum associated as prefix + tail, which can
// differ from Optimize's left-to-right sum in the last bits.

// VRTBranch is one per-destination delivery branch of a VRTree.
type VRTBranch struct {
	// Dst names the viewer host this branch delivers to.
	Dst string
	// Groups are the tail module groups, in order from the shared terminal
	// to the destination. The first group may be co-located with the shared
	// terminal (no transfer before it).
	Groups []Assignment
	// Delay is the end-to-end delay src -> this destination (seconds):
	// shared prefix plus this branch's tail.
	Delay float64
	// Tier is the encoding quality tier the optimizer chose for this
	// branch (TierFull unless the tree was solved with a tier budget —
	// see OptimizeMultiTiered). The execution layer encodes once per
	// distinct tier across the tree's branches.
	Tier cost.Tier
}

// VRTree is the visualization routing tree for a multi-viewer session: the
// shared prefix mapping (source + groups up to the render stage, executed
// once) and one delivery branch per destination.
type VRTree struct {
	// Shared is the source group followed by the shared prefix groups; its
	// last group's node is the shared terminal every branch starts from.
	Shared []Assignment
	// Branches holds one tail per requested destination, in request order.
	Branches []VRTBranch
	// SharedDelay is the delay through the shared prefix alone (seconds).
	SharedDelay float64
	// Delay is the slowest branch's end-to-end delay — the frame period a
	// session must charge when every viewer has to receive the image.
	Delay float64
}

// SharedPath returns the node sequence of the shared prefix.
func (t *VRTree) SharedPath() []string {
	out := make([]string, len(t.Shared))
	for i, g := range t.Shared {
		out[i] = g.Node
	}
	return out
}

// BranchPath returns the full node sequence src -> destination for branch i:
// the shared path followed by the branch's own groups (deduplicating the
// shared terminal when the first tail group is co-located with it).
func (t *VRTree) BranchPath(i int) []string {
	out := t.SharedPath()
	for _, g := range t.Branches[i].Groups {
		if len(out) == 0 || out[len(out)-1] != g.Node {
			out = append(out, g.Node)
		}
	}
	return out
}

// BranchPlacement returns the per-module node names of branch i — the
// shared prefix modules followed by the tail modules — in the shape
// EvaluatePlacement expects, so the monitor half of the control loop can
// re-price every branch under the current graph.
func (t *VRTree) BranchPlacement(i int) []string {
	var out []string
	for gi, g := range t.Shared {
		for mi := range g.Modules {
			if gi == 0 && mi == 0 {
				continue // the "Source" marker is not a pipeline module
			}
			out = append(out, g.Node)
		}
	}
	for _, g := range t.Branches[i].Groups {
		for range g.Modules {
			out = append(out, g.Node)
		}
	}
	return out
}

// Clone deep-copies a VRTree so cached results can be handed to concurrent
// callers without aliasing.
func (t *VRTree) Clone() *VRTree {
	if t == nil {
		return nil
	}
	out := &VRTree{SharedDelay: t.SharedDelay, Delay: t.Delay}
	out.Shared = cloneGroups(t.Shared)
	out.Branches = make([]VRTBranch, len(t.Branches))
	for i, b := range t.Branches {
		out.Branches[i] = VRTBranch{Dst: b.Dst, Groups: cloneGroups(b.Groups), Delay: b.Delay, Tier: b.Tier}
	}
	return out
}

func cloneGroups(gs []Assignment) []Assignment {
	out := make([]Assignment, len(gs))
	for i, g := range gs {
		out[i] = Assignment{Node: g.Node, Modules: append([]string(nil), g.Modules...)}
	}
	return out
}

func (t *VRTree) String() string {
	s := ""
	for i, g := range t.Shared {
		if i > 0 {
			s += " -> "
		}
		s += g.Node
	}
	s += " => {"
	for i, b := range t.Branches {
		if i > 0 {
			s += ", "
		}
		if b.Tier != cost.TierFull {
			s += fmt.Sprintf("%s@%s (%.3fs)", b.Dst, b.Tier, b.Delay)
		} else {
			s += fmt.Sprintf("%s (%.3fs)", b.Dst, b.Delay)
		}
	}
	return s + fmt.Sprintf("} (slowest %.3fs)", t.Delay)
}

// RenderSplit returns the index of the first per-destination tail module:
// everything before it is the shared prefix a multi-viewer tree executes
// once. The split falls just after the last render-class (NeedsGPU) module;
// a pipeline with no such module shares everything but its final (delivery)
// module. The result is in [0, len(Modules)-1], so at least the last module
// is always per-destination.
func RenderSplit(p *Pipeline) int {
	split := len(p.Modules) - 1
	for k := len(p.Modules) - 1; k >= 0; k-- {
		if p.Modules[k].NeedsGPU {
			if k+1 < split {
				split = k + 1
			}
			break
		}
	}
	if split < 0 {
		split = 0
	}
	return split
}

// tierScaledPipeline returns p with the tail modules [split, n) — and the
// message feeding the first of them — rescaled to tier t's payload factor:
// a downscaled or delta-encoded frame is proportionally cheaper both to
// process and to ship. The shared prefix modules are untouched, so prefix
// pricing is tier-independent. TierFull returns p itself.
func tierScaledPipeline(p *Pipeline, split int, t cost.Tier) *Pipeline {
	s := cost.TierScale(t)
	if s == 1 {
		return p
	}
	scaled := &Pipeline{Name: p.Name, SourceBytes: p.SourceBytes}
	scaled.Modules = append([]Module(nil), p.Modules...)
	if split == 0 {
		scaled.SourceBytes *= s
	} else {
		scaled.Modules[split-1].OutBytes *= s
	}
	for k := split; k < len(scaled.Modules); k++ {
		scaled.Modules[k].RefTime *= s
		scaled.Modules[k].OutBytes *= s
	}
	return scaled
}

// OptimizeMultiTiered computes the optimal visualization routing tree from
// src to the destination set: the shared prefix (modules before RenderSplit)
// is mapped once, and each destination gets its own tail branch relaxed from
// the shared terminal's DP column. The shared terminal is chosen to minimize
// the slowest branch's end-to-end delay. Destinations are deduplicated;
// branch order follows the deduplicated request order.
//
// The encoding quality ladder is an extra optimization dimension: the
// backward per-destination tail DP is run once per tier up to maxTier (tail
// payloads and processing scaled by cost.TierScale), and each branch
// independently adopts the tier minimizing its tail delay plus the tier's
// fidelity penalty (cost.TierPenaltySeconds — charged in the selection
// objective only, never in the reported delay), preferring higher fidelity
// on ties. With maxTier == TierFull only the full-resolution rung is
// enumerated, every branch delivers at full resolution, and over one
// destination the mapping is Optimize's (the delay to within rounding: see
// the file comment).
func OptimizeMultiTiered(g *Graph, p *Pipeline, src int, dsts []int, maxTier cost.Tier) (*VRTree, error) {
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
	// prefix (modules [0, split)) onto a path from src ending at v.
	P, choice := forward(g, p, src, split, autoWorkers(nNodes))

	// Backward tail DP per (destination, tier): B[v] is the minimal delay
	// of mapping the tail modules [split, n) given their input resides at
	// v, ending with the last module at the destination, with the tail
	// payloads scaled to the tier. The recursion mirrors the forward one
	// (at most one edge crossing per module), so a full-resolution tree
	// over one destination picks Optimize's mapping.
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

	prefixNodes, err := backtrack(g, src, vstar, choice)
	if err != nil {
		return nil, err
	}
	tree := &VRTree{SharedDelay: P[vstar], Shared: buildVRT(g, p, src, prefixNodes, P[vstar]).Groups}

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
