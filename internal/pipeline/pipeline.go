// Package pipeline implements the paper's core contribution: the analytical
// model of a visualization pipeline mapped onto a wide-area network (Section
// 4.2, Eq. 2) and the dynamic-programming optimizer (Section 4.5, Eqs. 9-10)
// that partitions the pipeline into groups and maps them onto network nodes
// to minimize end-to-end delay. An exhaustive reference optimizer and a
// greedy heuristic are provided for validation and ablation, plus an
// evaluator for prescribed (manual) mappings such as the comparison loops of
// Fig. 9.
package pipeline

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"ricsa/internal/cost"
)

// Module is one visualization module M_j (j >= 2): filtering,
// transformation (e.g. isosurface extraction), rendering, and so on. Its
// compute demand is expressed as c_j * m_{j-1} — the seconds it takes on a
// node of normalized power 1 — and its output message size m_j in bytes.
type Module struct {
	Name string
	// RefTime is c_j * m_{j-1}: execution seconds on a power-1 node.
	RefTime float64
	// OutBytes is m_j, the output shipped to the next module.
	OutBytes float64
	// NeedsGPU marks modules only GPU hosts can run (rendering, in the
	// paper's deployment: the GaTech and OSU hosts had no graphics cards).
	NeedsGPU bool
	// Parallelizable marks modules that can use a cluster node's workers
	// (the paper's MPI-based visualization modules).
	Parallelizable bool
}

// Pipeline is the linear module chain M_1 .. M_{n+1}. M_1 is the data
// source: it performs no computation and emits SourceBytes (m_1).
type Pipeline struct {
	Name        string
	SourceBytes float64
	Modules     []Module // M_2 .. M_{n+1}, in order
}

// InputBytes returns m_{j-1}, the input size of Modules[k].
func (p *Pipeline) InputBytes(k int) float64 {
	if k == 0 {
		return p.SourceBytes
	}
	return p.Modules[k-1].OutBytes
}

// Node is a compute host in the transport network graph G = (V, E).
type Node struct {
	Name  string
	Power float64 // normalized computing power p_i
	// HasGPU enables NeedsGPU modules.
	HasGPU bool
	// Workers is the parallel width available to Parallelizable modules.
	Workers int
	// ScatterBW is the intra-cluster distribution bandwidth (bytes/s)
	// charged when a parallel module must spread its input over workers,
	// and ParallelOverhead is the fixed per-invocation cost (process
	// startup, synchronization, gather). Together they are the overhead
	// that makes clusters unattractive for small datasets (Section 5.3.1).
	ScatterBW        float64
	ParallelOverhead float64
	// TrianglesPerSec expresses rendering throughput when relevant (kept
	// for capability modelling; rendering cost is folded into RefTime by
	// the caller's cost models).
	TrianglesPerSec float64
}

// Edge is a directed virtual link with measured effective bandwidth and
// minimum delay (seconds), the outputs of the EPB estimator, plus the
// connection manager's loss estimate for delivery-model pricing.
type Edge struct {
	To        int
	Bandwidth float64 // bytes per second
	Delay     float64 // seconds, size-independent
	// Loss is the estimated packet loss fraction on the link and LossConf
	// the confidence of that estimate in [0, 1]. Zero loss prices both
	// transport models identically to the historical lossless formula.
	Loss     float64
	LossConf float64
}

// Graph is the transport network: nodes and directed adjacency.
type Graph struct {
	Nodes []Node
	Adj   [][]Edge
	// Rev, when non-zero, is a revision token assigned by the graph's
	// owner — typically the measurement epoch that produced it (see
	// NextGraphRev). Fingerprint then digests the token and the graph's
	// dimensions instead of re-hashing every edge, making cache lookups
	// O(1) in |E|. Owners that mutate a stamped graph in place must
	// re-stamp it (or zero Rev to fall back to full content hashing).
	Rev uint64
	// Transport selects the delivery model transfer times are priced
	// with: the NACK path (zero value, the historical formula), the
	// fountain-FEC path, or per-edge auto-selection. See cost.DeliverySeconds.
	Transport cost.TransportMode
}

// NewGraph allocates a graph with the given nodes and no edges.
func NewGraph(nodes ...Node) *Graph {
	return &Graph{Nodes: nodes, Adj: make([][]Edge, len(nodes))}
}

// AddEdge inserts a directed edge.
func (g *Graph) AddEdge(from, to int, bandwidth, delaySeconds float64) {
	g.Adj[from] = append(g.Adj[from], Edge{To: to, Bandwidth: bandwidth, Delay: delaySeconds})
}

// AddBiEdge inserts edges in both directions with symmetric parameters.
func (g *Graph) AddBiEdge(a, b int, bandwidth, delaySeconds float64) {
	g.AddEdge(a, b, bandwidth, delaySeconds)
	g.AddEdge(b, a, bandwidth, delaySeconds)
}

// NodeIndex returns the index of the named node, or -1.
func (g *Graph) NodeIndex(name string) int {
	for i, n := range g.Nodes {
		if n.Name == name {
			return i
		}
	}
	return -1
}

// EdgeCount returns |E| (directed edges).
func (g *Graph) EdgeCount() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n
}

// FindEdge returns the edge from -> to, or nil.
func (g *Graph) FindEdge(from, to int) *Edge {
	for i := range g.Adj[from] {
		if g.Adj[from][i].To == to {
			return &g.Adj[from][i]
		}
	}
	return nil
}

// computeTime returns the execution time of module k on node v, including
// the cluster scatter overhead for parallel modules — or +Inf if the node
// cannot run the module (the paper's feasibility check).
func computeTime(g *Graph, p *Pipeline, k, v int) float64 {
	m := p.Modules[k]
	nd := g.Nodes[v]
	if m.NeedsGPU && !nd.HasGPU {
		return math.Inf(1)
	}
	power := nd.Power
	t := 0.0
	if m.Parallelizable && nd.Workers > 1 {
		// Linear speedup with a per-worker efficiency discount, plus the
		// data-distribution cost across workers and the fixed startup/
		// synchronization overhead.
		power = nd.Power * (1 + 0.85*float64(nd.Workers-1))
		if nd.ScatterBW > 0 {
			t += p.InputBytes(k) / nd.ScatterBW
		}
		t += nd.ParallelOverhead
	}
	if power <= 0 {
		return math.Inf(1)
	}
	return t + m.RefTime/power
}

// ExecTime returns the modelled execution time of module k on node v —
// the same cost the optimizer charges — so the execution layer can replay a
// mapping on the emulated network. Returns +Inf for infeasible placements.
func ExecTime(g *Graph, p *Pipeline, k, v int) float64 { return computeTime(g, p, k, v) }

// transferTime returns the time to move module k's input over edge e,
// priced under the graph's transport mode. A lossless edge yields the
// historical formula bit-for-bit in every mode.
func transferTime(g *Graph, p *Pipeline, k int, e Edge) float64 {
	if e.Bandwidth <= 0 {
		return math.Inf(1)
	}
	return cost.DeliverySeconds(g.Transport, p.InputBytes(k), e.Bandwidth, e.Delay, e.Loss, e.LossConf)
}

// Assignment places a contiguous run of modules on one node.
type Assignment struct {
	Node    string
	Modules []string
}

// VRT is the visualization routing table: the optimized decomposition and
// mapping, in order from the data source to the client, with the predicted
// end-to-end delay per dataset (Eq. 2).
type VRT struct {
	Groups []Assignment
	Delay  float64 // seconds
}

// Path returns the node sequence of the VRT.
func (v *VRT) Path() []string {
	out := make([]string, len(v.Groups))
	for i, gp := range v.Groups {
		out[i] = gp.Node
	}
	return out
}

func (v *VRT) String() string {
	s := ""
	for i, gp := range v.Groups {
		if i > 0 {
			s += " -> "
		}
		s += gp.Node
	}
	return fmt.Sprintf("%s (%.3fs)", s, v.Delay)
}

// Errors returned by the optimizers.
var (
	ErrNoFeasibleMapping = errors.New("pipeline: no feasible mapping exists")
	ErrBadEndpoints      = errors.New("pipeline: invalid source or destination node")
)

// parallelChunk is the node count kept per goroutine when a DP column fans
// out: columns are thin (O(in-degree) per node), so finer shards cost more
// in spawn/join than they save in compute.
const parallelChunk = 128

// DefaultParallelThreshold is the graph size at which Optimize switches
// from serial to parallel column evaluation — two parallelChunk shards of
// work.
const DefaultParallelThreshold = 2 * parallelChunk

// autoWorkers picks the goroutines per DP column from the node count: serial
// below DefaultParallelThreshold, else up to GOMAXPROCS workers with at
// least parallelChunk nodes of work each.
func autoWorkers(nNodes int) int {
	if nNodes < DefaultParallelThreshold {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), nNodes/parallelChunk)
}

// inEdge is a directed edge viewed from its head: the tail node plus the
// link parameters. The DP relaxes each node over its in-edges, so Optimize
// builds this reverse index once instead of scanning every node pair with
// FindEdge per column.
type inEdge struct {
	From int32
	E    Edge
}

func inEdgeIndex(g *Graph) [][]inEdge {
	in := make([][]inEdge, len(g.Nodes))
	for u, adj := range g.Adj {
		for _, e := range adj {
			in[e.To] = append(in[e.To], inEdge{From: int32(u), E: e})
		}
	}
	return in
}

// Optimize runs the dynamic program of Eqs. 9-10: T^j(v_i) is the minimal
// delay of mapping the first j messages onto a path from src to v_i; the
// answer is T^n(dst). Complexity O(n x |E|). The returned VRT includes the
// source group (M_1 at src) followed by the computed groups. Large graphs
// are solved with several goroutines per column, chosen from the node count
// (autoWorkers).
func Optimize(g *Graph, p *Pipeline, src, dst int) (*VRT, error) {
	return optimize(g, p, src, dst, autoWorkers(len(g.Nodes)))
}

// optimize is Optimize at an explicit worker count (<= 1 is the serial
// path); results are identical at every count.
func optimize(g *Graph, p *Pipeline, src, dst, workers int) (*VRT, error) {
	nNodes := len(g.Nodes)
	n := len(p.Modules)
	if src < 0 || src >= nNodes || dst < 0 || dst >= nNodes {
		return nil, ErrBadEndpoints
	}
	if n == 0 {
		return nil, errors.New("pipeline: empty module list")
	}
	T, choice := forward(g, p, src, n, workers)
	if math.IsInf(T[dst], 1) {
		return nil, ErrNoFeasibleMapping
	}
	nodes, err := backtrack(g, src, dst, choice)
	if err != nil {
		return nil, err
	}
	return buildVRT(g, p, src, nodes, T[dst]), nil
}

// forward is the Eq. 9 recursion, the only copy: it returns column upTo of
// the dynamic program — T[v], the minimal delay of mapping modules [0, upTo)
// onto a path from src ending at v — and choice[j][v], the node module j's
// input came from (v itself for direct inheritance, -1 when unreachable).
// upTo == 0 is the raw dataset sitting at the source. Within a column j
// every T^j(v) depends only on column j-1, so with workers > 1 the per-node
// loop shards across goroutines without synchronization beyond the column
// barrier; the result does not depend on the worker count.
func forward(g *Graph, p *Pipeline, src, upTo, workers int) ([]float64, [][]int32) {
	nNodes := len(g.Nodes)
	// T[v] holds T^j(v) for the current column j; prevT the previous one.
	T := make([]float64, nNodes)
	prevT := make([]float64, nNodes)
	choice := make([][]int32, upTo)
	for v := range prevT {
		prevT[v] = math.Inf(1)
	}
	if upTo == 0 {
		prevT[src] = 0
		return prevT, choice
	}
	in := inEdgeIndex(g)

	// Base column j = 0 (the paper's j = 1, message m_1 feeding M_2):
	// T^1(v) = c_2 m_1 / p_v + m_1 / b_{src,v} for v adjacent to src,
	// c_2 m_1 / p_src for v = src, +Inf otherwise.
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

	// relax computes one column slice [lo, hi); slices only read prevT and
	// write disjoint ranges of T and ch.
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
	for j := 1; j < upTo; j++ {
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
	return prevT, choice
}

// backtrack replays forward's choices from end back to src and returns the
// node of every module in [0, len(choice)).
func backtrack(g *Graph, src, end int, choice [][]int32) ([]int, error) {
	nodes := make([]int, len(choice))
	cur := end
	for j := len(choice) - 1; j >= 0; j-- {
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
	return nodes, nil
}

// buildVRT groups consecutive modules by node, behind the source group.
func buildVRT(g *Graph, p *Pipeline, src int, nodes []int, total float64) *VRT {
	vrt := &VRT{Delay: total}
	vrt.Groups = append(vrt.Groups, Assignment{
		Node:    g.Nodes[src].Name,
		Modules: []string{"Source"},
	})
	cur := src
	for k, v := range nodes {
		if v != cur {
			vrt.Groups = append(vrt.Groups, Assignment{Node: g.Nodes[v].Name})
			cur = v
		}
		last := &vrt.Groups[len(vrt.Groups)-1]
		last.Modules = append(last.Modules, p.Modules[k].Name)
	}
	return vrt
}

// Evaluate computes the Eq. 2 delay of a prescribed mapping: nodes[k] is
// the node executing module k, with the source at src. Node changes must
// follow graph edges. This scores the manual loops of Fig. 9 and Fig. 10.
func Evaluate(g *Graph, p *Pipeline, src int, nodes []int) (float64, error) {
	if len(nodes) != len(p.Modules) {
		return 0, fmt.Errorf("pipeline: mapping covers %d modules, want %d", len(nodes), len(p.Modules))
	}
	total := 0.0
	cur := src
	for k, v := range nodes {
		if v != cur {
			e := g.FindEdge(cur, v)
			if e == nil {
				return 0, fmt.Errorf("pipeline: no edge %s -> %s",
					g.Nodes[cur].Name, g.Nodes[v].Name)
			}
			total += transferTime(g, p, k, *e)
			cur = v
		}
		ct := computeTime(g, p, k, v)
		if math.IsInf(ct, 1) {
			return 0, fmt.Errorf("pipeline: module %s infeasible on %s",
				p.Modules[k].Name, g.Nodes[v].Name)
		}
		total += ct
	}
	return total, nil
}

// EvaluatePlacement scores a mapping given by node names: srcName hosts the
// data source and placement[k] names the node executing module k.
func EvaluatePlacement(g *Graph, p *Pipeline, srcName string, placement []string) (float64, error) {
	src := g.NodeIndex(srcName)
	if src < 0 {
		return 0, ErrBadEndpoints
	}
	nodes := make([]int, len(placement))
	for k, name := range placement {
		v := g.NodeIndex(name)
		if v < 0 {
			return 0, fmt.Errorf("pipeline: unknown node %q", name)
		}
		nodes[k] = v
	}
	return Evaluate(g, p, src, nodes)
}
