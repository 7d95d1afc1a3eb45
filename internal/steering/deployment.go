// Package steering assembles the RICSA system of Section 2 on top of the
// emulated WAN: the central management (CM) node that measures the network
// and computes the visualization routing table, the data source (DS) node
// that runs or serves a simulation, computing service (CS) nodes that
// execute visualization modules, and the front-end/client side that
// receives images and issues steering commands.
//
// There is one session model. SessionManager owns up to MaxSessions
// concurrent live sessions — real simulations advancing on the manager's
// clock (wall time in the server, virtual time under the scenario engine)
// with per-session lifecycle goroutines — behind one shared cm.Manager
// whose Adapter reconfigures a session's mapping at runtime (Section
// 5.3.2; see DESIGN.md).
//
// Deployment is the evaluation substrate beside it: it measures the
// emulated testbed and executes one optimized frame at a time on the
// network's virtual clock (RunFrameSync), with dataset and geometry
// payloads moving as bulk flows over the data links, so a frame delay
// measured there includes every term of the paper's Eq. 2 plus the real
// transport-level effects (cross traffic, loss) the analytical model
// abstracts away.
package steering

import (
	"fmt"

	"ricsa/internal/cm"
	"ricsa/internal/cost"
	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
)

// Deployment binds an emulated network to a Central Manager instance. It is
// the virtual-clock client of the cm control loop: Measure builds (or
// refreshes) the CM and Optimize consults its memoized dynamic program.
type Deployment struct {
	Net *netsim.Network
	// CM is the control loop: the measured graph, the per-edge EWMA
	// estimate store, and the shared memoized optimizer. Nil until Measure.
	CM *cm.Manager
	// Graph is the CM's current published snapshot (a synced read-only
	// view, refreshed by Measure; kept as a field for the many evaluation
	// layers that address the graph directly).
	Graph *pipeline.Graph
	// Estimates is the CM's per-channel measurement view keyed "from->to".
	Estimates map[string]cost.PathEstimate
}

// NewDeployment wraps a network. Call Measure before optimizing.
func NewDeployment(net *netsim.Network) *Deployment {
	return &Deployment{Net: net, Estimates: make(map[string]cost.PathEstimate)}
}

// Measure actively probes every directed channel with test messages (the
// Section 4.3 probes) and publishes the pipeline graph. The first call
// constructs the Central Manager; later calls run a gated full sweep
// through it, so re-measuring an unchanged network keeps the graph's Rev
// and the optimizer cache warm. probeSizes may be nil for the default
// sweep; repeats averages multiple probes per size to smooth cross traffic.
func (d *Deployment) Measure(probeSizes []int, repeats int) {
	if d.CM == nil {
		d.CM = cm.New(d.Net, cm.Config{ProbeSizes: probeSizes, ProbeRepeats: repeats})
	} else {
		d.CM.MeasureAllWith(probeSizes, repeats)
	}
	d.Graph = d.CM.Graph()
	d.Estimates = d.CM.Estimates()
}

// Optimize runs the CM node's memoized dynamic program for the given
// pipeline from the named data source to the named client.
func (d *Deployment) Optimize(p *pipeline.Pipeline, srcName, dstName string) (*pipeline.VRT, error) {
	if d.CM == nil {
		return nil, fmt.Errorf("steering: Measure must run before Optimize")
	}
	return d.CM.Optimize(p, srcName, dstName)
}
