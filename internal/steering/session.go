package steering

import (
	"fmt"

	"ricsa/internal/cm"
	"ricsa/internal/grid"
	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
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

// Session is a live monitoring/steering loop: the simulation at the DS
// node produces a dataset per frame, the dataset traverses the optimized
// pipeline to the client, and steering commands travel back over the
// control route. All activity runs on the deployment's virtual clock; the
// paper's semantics that "the simulation does not proceed until the image
// from the last time step is delivered" is preserved by sequencing.
type Session struct {
	D   *Deployment
	Req Request

	Client, FrontEnd, CM, DS string

	Sim       *simengine.Sim
	Pipe      *pipeline.Pipeline
	VRT       *pipeline.VRT
	Placement []string

	// SimSecondsPerStep charges the DS node for solver compute per cycle.
	SimSecondsPerStep float64

	// AdaptTolerance, when positive, enables runtime reconfiguration: if a
	// frame's realized delay exceeds the VRT's prediction by more than this
	// fraction, the CM re-measures the network and recomputes the mapping
	// ("the mapping scheme is adaptively re-configured during runtime in
	// response to drastic network or host condition changes", Sec. 5.3.2).
	AdaptTolerance float64
	// AdaptWindow is how many consecutive deviating frames arm the
	// reconfiguration (<= 0 selects 1: every deviating frame, the original
	// behaviour of the emulated loop).
	AdaptWindow int
	// ProbeEvery, when positive, drives the CM's incremental Prober on the
	// virtual clock: one round-robin probe tick after every ProbeEvery
	// frames, between frames (when the session owns the event loop).
	ProbeEvery int
	// Reconfigs counts runtime re-optimizations performed.
	Reconfigs int
	adapter   *cm.Adapter

	Frames      []FrameResult
	ControlLats []netsim.Time
	SetupLat    netsim.Time

	// scratch and fieldScratch are the session's reusable frame data plane:
	// snapshots and renders reuse them, so repeated RenderFrame calls are
	// allocation-flat. The session is single-threaded (it owns the virtual
	// clock), so producer-style ownership is trivial. roi is the session's
	// dirty-block mesh cache: repeated isosurface renders re-extract only
	// blocks whose field content moved since the previous render.
	scratch      viz.FrameScratch
	fieldScratch *grid.ScalarField
	roi          viz.BlockMeshCache
}

// NewSession wires a session: the request travels client -> front end ->
// CM -> DS over control links, the DS instantiates the simulator and emits
// the first dataset, the CM analyzes it and computes the VRT.
func NewSession(d *Deployment, client, frontEnd, cm, ds string, req Request) (*Session, error) {
	if d.Graph == nil {
		return nil, fmt.Errorf("steering: Measure must run before NewSession")
	}
	s := &Session{
		D: d, Req: req,
		Client: client, FrontEnd: frontEnd, CM: cm, DS: ds,
	}

	// Control setup: request to CM, forwarded to DS (a few KB of params).
	setupDone := false
	err := d.ControlSend([]string{client, frontEnd, cm, ds}, 4<<10, func(lat netsim.Time) {
		s.SetupLat = lat
		setupDone = true
	})
	if err != nil {
		return nil, err
	}
	d.Net.Run()
	if !setupDone {
		return nil, fmt.Errorf("steering: session setup never completed")
	}

	// DS instantiates the simulator.
	if s.Sim, err = newSimulator(req); err != nil {
		return nil, err
	}
	// Charge ~80 ns per cell per cycle on the DS host for the solver.
	s.SimSecondsPerStep = 80e-9 * float64(req.NX*req.NY*req.NZ)

	// First dataset -> CM analysis -> VRT.
	field := s.snapshot()
	st := AnalyzeDataset(field, req.Simulator, req.BlockEdge, req.Isovalue)
	s.Pipe = BuildIsoPipeline(st)
	vrt, err := d.Optimize(s.Pipe, ds, client)
	if err != nil {
		return nil, fmt.Errorf("steering: CM optimization failed: %w", err)
	}
	s.VRT = vrt
	s.Placement = PlacementFromVRT(vrt)
	return s, nil
}

func (s *Session) snapshot() *grid.ScalarField {
	switch s.Req.Variable {
	case "pressure":
		s.fieldScratch = s.Sim.PressureInto(s.fieldScratch)
	default:
		s.fieldScratch = s.Sim.DensityInto(s.fieldScratch)
	}
	return s.fieldScratch
}

// RunFrames advances n monitored frames sequentially on the virtual clock.
// Before each frame the solver runs StepsPerFrame cycles (charged as DS
// compute time); after each frame's image lands at the client, steer may
// return new parameters, which travel back over the control route and are
// applied at the simulator's next step boundary.
func (s *Session) RunFrames(n int, steer func(frame int) *simengine.Params) error {
	for i := 0; i < n; i++ {
		// Solver cycles, charged on the virtual clock.
		for k := 0; k < s.Req.StepsPerFrame; k++ {
			s.Sim.Step()
		}
		s.D.Net.RunFor(secondsToDuration(s.SimSecondsPerStep * float64(s.Req.StepsPerFrame)))

		frameDone := false
		err := s.D.RunFrame(s.Pipe, s.DS, s.Placement, func(r FrameResult) {
			s.Frames = append(s.Frames, r)
			frameDone = true
		})
		if err != nil {
			return err
		}
		s.D.Net.Run()
		if !frameDone {
			return fmt.Errorf("steering: frame %d stalled", i)
		}

		if s.AdaptTolerance > 0 {
			if err := s.maybeReconfigure(); err != nil {
				return err
			}
		}

		if s.ProbeEvery > 0 && (i+1)%s.ProbeEvery == 0 {
			// Continuous background measurement, charged on the virtual
			// clock between frames while the session owns the event loop.
			s.D.ProbeTick()
		}

		if steer != nil {
			if p := steer(i); p != nil {
				ctrlDone := false
				route := []string{s.Client, s.FrontEnd, s.CM, s.DS}
				err := s.D.ControlSend(route, 2<<10, func(lat netsim.Time) {
					s.ControlLats = append(s.ControlLats, lat)
					s.Sim.SetParams(*p)
					ctrlDone = true
				})
				if err != nil {
					return err
				}
				s.D.Net.Run()
				if !ctrlDone {
					return fmt.Errorf("steering: control message %d stalled", i)
				}
			}
		}
	}
	return nil
}

// maybeReconfigure feeds the last frame's realized delay to the session's
// cm.Adapter; on a sustained drastic deviation the CM re-probes every link
// (tolerance-gated, so a transient that measures back healthy changes
// nothing) and recomputes the mapping.
func (s *Session) maybeReconfigure() error {
	if s.adapter == nil {
		window := s.AdaptWindow
		if window <= 0 {
			window = 1
		}
		s.adapter = s.D.CM.NewAdapterTuned(s.AdaptTolerance, window)
	}
	last := s.Frames[len(s.Frames)-1].Elapsed.Seconds()
	if !s.adapter.Observe(last, s.VRT.Delay) {
		return nil
	}
	s.D.Measure(nil, 1)
	vrt, err := s.D.Optimize(s.Pipe, s.DS, s.Client)
	if err != nil {
		return fmt.Errorf("steering: reconfiguration failed: %w", err)
	}
	s.VRT = vrt
	s.Placement = PlacementFromVRT(vrt)
	s.Reconfigs++
	s.adapter.Reset()
	return nil
}

// RenderFrame produces an actual image of the current simulation state via
// the requested method — the pixels a browser client would receive. It runs
// outside the virtual clock (wall time is not charged). The image is backed
// by the session's reusable scratch: it is valid until the next RenderFrame
// call on the same session, so copy or encode it before re-rendering.
func (s *Session) RenderFrame(width, height int) (*viz.Image, error) {
	return RenderDatasetROI(&s.scratch, &s.roi, nil, s.snapshot(), s.Req, width, height)
}

// MeanFrameDelay averages the end-to-end delays of completed frames.
func (s *Session) MeanFrameDelay() netsim.Time {
	if len(s.Frames) == 0 {
		return 0
	}
	var sum netsim.Time
	for _, f := range s.Frames {
		sum += f.Elapsed
	}
	return sum / netsim.Time(len(s.Frames))
}
