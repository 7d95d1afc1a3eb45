package steering

import (
	"fmt"
	"math"

	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
)

// FrameResult reports one executed visualization frame.
type FrameResult struct {
	Elapsed netsim.Time // end-to-end delay, data source to client image
	Path    []string    // node sequence traversed
}

// RunFrameSync executes a pipeline under a fixed placement on the emulated
// network's virtual clock and drives the event loop until the frame
// completes, returning the result; the caller must own the event loop.
// Module compute times are charged per the measured cost model (the
// identical formula the optimizer uses), and inter-node messages move as
// reliable bulk flows over the real emulated channels — so cross traffic,
// loss, and jitter perturb the realized delay around the optimizer's
// prediction, as on the paper's live testbed.
//
// placement[k] names the node executing module k; srcName hosts the source.
// The result's Elapsed ends at the virtual instant the final module output
// lands on the last node.
func (d *Deployment) RunFrameSync(p *pipeline.Pipeline, srcName string, placement []string) (FrameResult, error) {
	var res FrameResult
	if d.Graph == nil {
		return res, fmt.Errorf("steering: Measure must run before RunFrameSync")
	}
	if len(placement) != len(p.Modules) {
		return res, fmt.Errorf("steering: placement covers %d modules, want %d", len(placement), len(p.Modules))
	}
	src := d.Graph.NodeIndex(srcName)
	if src < 0 {
		return res, fmt.Errorf("steering: unknown source %q", srcName)
	}
	// Resolve and validate the whole placement before any event runs.
	nodes := make([]int, len(placement))
	cur := src
	for k, name := range placement {
		v := d.Graph.NodeIndex(name)
		if v < 0 {
			return res, fmt.Errorf("steering: unknown node %q", name)
		}
		nodes[k] = v
		if v != cur {
			if d.Net.Channel(d.Graph.Nodes[cur].Name, d.Graph.Nodes[v].Name) == nil {
				return res, fmt.Errorf("steering: no channel %s -> %s",
					d.Graph.Nodes[cur].Name, d.Graph.Nodes[v].Name)
			}
			cur = v
		}
		if math.IsInf(pipeline.ExecTime(d.Graph, p, k, v), 1) {
			return res, fmt.Errorf("steering: module %s infeasible on %s",
				p.Modules[k].Name, d.Graph.Nodes[v].Name)
		}
	}

	start := d.Net.Now()
	path := []string{srcName}
	completed := false
	var step func(k, at int)
	step = func(k, at int) {
		if k == len(nodes) {
			res = FrameResult{Elapsed: d.Net.Now() - start, Path: path}
			completed = true
			return
		}
		v := nodes[k]
		run := func() {
			ct := pipeline.ExecTime(d.Graph, p, k, v)
			d.Net.Schedule(netsim.Time(ct*1e9), func() { step(k+1, v) })
		}
		if v != at {
			ch := d.Net.Channel(d.Graph.Nodes[at].Name, d.Graph.Nodes[v].Name)
			path = append(path, d.Graph.Nodes[v].Name)
			netsim.BulkTransfer(ch, int(p.InputBytes(k)), func(netsim.Time) { run() })
			return
		}
		run()
	}
	step(0, src)
	d.Net.Run()
	if !completed {
		return res, fmt.Errorf("steering: frame never completed")
	}
	return res, nil
}

// PlacementFromVRT flattens a VRT into the per-module node list RunFrameSync
// expects (dropping the source pseudo-module).
func PlacementFromVRT(vrt *pipeline.VRT) []string {
	var out []string
	for gi, grp := range vrt.Groups {
		mods := grp.Modules
		if gi == 0 && len(mods) > 0 && mods[0] == "Source" {
			mods = mods[1:]
		}
		for range mods {
			out = append(out, grp.Node)
		}
	}
	return out
}
