package steering

import (
	"fmt"

	"ricsa/internal/simengine"
	"ricsa/internal/viz"
)

// Request is what an Ajax client submits to start a steering session
// (Section 2: "a request specifying the simulator type, variable names,
// visualization method, and viewing parameters").
type Request struct {
	Simulator string // "sod" or "bowshock"
	Variable  string // "density" or "pressure"
	Method    string // "isosurface", "raycast", or "streamline"
	Isovalue  float32
	Camera    viz.Camera
	BlockEdge int
	// SourceNode names the host running the data source (the simulation)
	// and ClientNode the viewer host frames are delivered to. Both must
	// name nodes of the Central Manager's measured graph; the session's
	// every CM consultation optimizes between exactly these endpoints.
	SourceNode string
	ClientNode string
	// ClientNodes, when non-empty, selects the multi-viewer mode instead
	// of ClientNode: one shared simulate/render mapping fans out to every
	// named host over a visualization routing tree, and frame pacing
	// charges the slowest branch.
	ClientNodes []string
	// Octant selects one of the eight octree subsets of the dataset
	// (0-7), or the entire dataset when negative — the paper's GUI exposes
	// exactly this choice (Section 5.1).
	Octant int
	// Sim grid dimensions at the data source.
	NX, NY, NZ int
	// StepsPerFrame is how many solver cycles produce one monitored frame.
	StepsPerFrame int
}

// Destinations returns the viewer hosts the request names: ClientNodes in
// multi-viewer mode, else the single ClientNode.
func (r Request) Destinations() []string {
	if len(r.ClientNodes) > 0 {
		return r.ClientNodes
	}
	return []string{r.ClientNode}
}

// DefaultRequest returns a Sod shock tube monitoring request. The default
// endpoints reproduce the paper's testbed roles — the data source at the
// GaTech host, the client front end at ORNL — but they are plain request
// fields validated against the measured graph, not baked-in placement: any
// measured host may be named instead.
func DefaultRequest() Request {
	return Request{
		Simulator:  "sod",
		Variable:   "density",
		Method:     "isosurface",
		Isovalue:   0.5,
		SourceNode: "GaTech",
		ClientNode: "ORNL",
		// Oblique view so the tube's planar waves are visible rather than
		// edge-on.
		Camera:    viz.Camera{Yaw: 0.9, Pitch: 0.35, Zoom: 1},
		Octant:    -1,
		BlockEdge: 8,
		NX:        64, NY: 32, NZ: 32,
		StepsPerFrame: 4,
	}
}

// newSimulator instantiates the solver a request names at its grid size,
// with that problem's default parameters.
func newSimulator(req Request) (*simengine.Sim, error) {
	switch req.Simulator {
	case "sod":
		return simengine.NewSod(req.NX, req.NY, req.NZ, simengine.DefaultSodParams()), nil
	case "bowshock":
		return simengine.NewBowShock(req.NX, req.NY, req.NZ, simengine.DefaultBowShockParams()), nil
	default:
		return nil, fmt.Errorf("steering: unknown simulator %q", req.Simulator)
	}
}
