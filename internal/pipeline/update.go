package pipeline

// This file is the incremental re-measurement API. The original measurement
// layers rebuilt the whole Graph per probing epoch, which forced a new Rev —
// and therefore an optimizer-cache miss — even when the network had not
// actually changed. Continuous probing instead patches individual edges:
// the central manager collects the edges whose fresh estimates moved past
// its tolerance and applies them in one batch, producing a new immutable
// snapshot only when something really moved. Unchanged networks keep their
// Rev and keep hitting the cache.

// EdgeUpdate names one directed edge's freshly measured parameters.
type EdgeUpdate struct {
	From, To  int
	Bandwidth float64 // bytes per second
	Delay     float64 // seconds
	// Loss and LossConf carry the edge's packet-loss estimate alongside the
	// bandwidth/delay measurements; see Edge.
	Loss     float64
	LossConf float64
}

// ApplyEdgeUpdates returns a copy of g with the updates applied and a fresh
// Rev stamp. The copy is shallow where possible: the node inventory and
// every adjacency row without an update are shared with g, so the cost is
// O(|touched rows|), not O(|E|). g itself is never mutated — callers holding
// the old snapshot (a concurrently running optimizer, a session that has not
// re-consulted yet) keep a consistent view. Updates naming an absent edge
// insert it.
func (g *Graph) ApplyEdgeUpdates(ups []EdgeUpdate) *Graph {
	out := &Graph{Nodes: g.Nodes, Adj: make([][]Edge, len(g.Adj)), Rev: NextGraphRev(),
		Transport: g.Transport}
	copy(out.Adj, g.Adj)
	copied := make([]bool, len(g.Adj))
	for _, up := range ups {
		if !copied[up.From] {
			out.Adj[up.From] = append([]Edge(nil), g.Adj[up.From]...)
			copied[up.From] = true
		}
		row := out.Adj[up.From]
		patched := false
		for i := range row {
			if row[i].To == up.To {
				row[i].Bandwidth = up.Bandwidth
				row[i].Delay = up.Delay
				row[i].Loss = up.Loss
				row[i].LossConf = up.LossConf
				patched = true
				break
			}
		}
		if !patched {
			out.Adj[up.From] = append(row, Edge{To: up.To, Bandwidth: up.Bandwidth, Delay: up.Delay,
				Loss: up.Loss, LossConf: up.LossConf})
		}
	}
	return out
}
