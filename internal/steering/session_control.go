package steering

import (
	"fmt"
	"math"

	"ricsa/internal/cost"
	"ricsa/internal/grid"
	"ricsa/internal/pipeline"
	"ricsa/internal/simengine"
)

// This file is the session's control side: re-pricing the installed mapping
// against the CM's current graph (monitor), consulting the CM for a new one
// (consultCM), the steering commands that travel back from the viewer
// (Steer), and the status/introspection accessors.

// monitor is the session's monitor→adapt step: it re-evaluates every branch
// of the installed tree under the CM's *current* graph (which the Prober
// keeps fresh) and feeds the slowest — what period charges — to the Adapter.
// A tree whose re-predicted delay deviates from its at-install prediction
// for AdaptWindow consecutive frames forces an early consultation.
func (s *ManagedSession) monitor(pipe *pipeline.Pipeline, tree *pipeline.VRTree) bool {
	s.mu.Lock()
	src := s.req.SourceNode
	// Placements are cached at install time so this per-frame re-pricing
	// does not rebuild node-name slices from the tree every frame.
	places := s.places
	s.mu.Unlock()
	var observed float64
	for _, pl := range places {
		d, err := s.mgr.cm.PredictPlacement(pipe, src, pl)
		if err != nil {
			// The placement no longer evaluates (a topology change): treat
			// as an unbounded deviation so the window logic still applies.
			d = math.Inf(1)
		}
		if d > observed {
			observed = d
		}
	}
	if !s.adapter.Observe(observed, tree.Delay) {
		return false
	}
	s.mu.Lock()
	s.adapts++
	s.mu.Unlock()
	return true
}

// consultCM rebuilds the session's pipeline model when its cost inputs
// changed (a new isovalue) and asks the CM for a routing tree from the
// source to the request's destinations. A ClientNodes session is solved
// under the manager's tier budget; a lone ClientNode gets a one-branch tree
// at full resolution, so the optimizer never degrades a single viewer that
// did not negotiate a tier itself. Unchanged (graph, pipeline, endpoints)
// instances are answered from the shared cache. A failed consultation keeps
// the session past due so the next frame retries immediately, and does not
// count as a re-optimization.
func (s *ManagedSession) consultCM(field *grid.ScalarField, req Request) {
	s.mu.Lock()
	pipe := s.pipe
	gen := s.pipeGen
	s.mu.Unlock()

	if pipe == nil {
		st := AnalyzeDataset(field, req.Simulator, req.BlockEdge, req.Isovalue)
		pipe = BuildIsoPipeline(st)
	}
	maxTier := s.mgr.cfg.MaxTier
	if len(req.ClientNodes) == 0 {
		maxTier = cost.TierFull
	}
	tree, err := s.mgr.optFn(pipe, req.SourceNode, req.Destinations(), maxTier)

	s.mu.Lock()
	if s.pipeGen != gen {
		// A steer invalidated the cost model while the optimizer ran:
		// drop this result (leaving sinceOpt past due) so the next frame
		// re-analyzes under the fresh parameters instead of installing a
		// stale pipeline over the reset.
		s.mu.Unlock()
		return
	}
	s.pipe = pipe
	s.optErr = err
	if err != nil {
		// Keep the prior mapping and stay past due: the next frame retries
		// instead of waiting out a full ReoptimizeEvery schedule, and the
		// failure is not a re-optimization.
		s.sinceOpt = s.mgr.cfg.ReoptimizeEvery
		s.mu.Unlock()
		return
	}
	s.tree = tree
	s.places = make([][]string, len(tree.Branches))
	for i := range tree.Branches {
		s.places[i] = tree.BranchPlacement(i)
	}
	s.reopts++
	s.sinceOpt = 0
	s.mu.Unlock()
	s.adapter.Reset()
}

// steerKey is one entry of the steering-key table: a physics key edits the
// simulator's parameters, a view key the visualization request.
type steerKey struct {
	sim  func(p *simengine.Params, v float64)
	view func(r *Request, v float64)
}

// steerKeys is every steering parameter a viewer may post.
var steerKeys = map[string]steerKey{
	"left_pressure":  {sim: func(p *simengine.Params, v float64) { p.LeftPressure = v }},
	"left_density":   {sim: func(p *simengine.Params, v float64) { p.LeftDensity = v }},
	"right_pressure": {sim: func(p *simengine.Params, v float64) { p.RightPressure = v }},
	"right_density":  {sim: func(p *simengine.Params, v float64) { p.RightDensity = v }},
	"gamma":          {sim: func(p *simengine.Params, v float64) { p.Gamma = v }},
	"cfl":            {sim: func(p *simengine.Params, v float64) { p.CFL = v }},
	"wind_velocity":  {sim: func(p *simengine.Params, v float64) { p.WindVelocity = v }},
	"wind_density":   {sim: func(p *simengine.Params, v float64) { p.WindDensity = v }},
	"isovalue":       {view: func(r *Request, v float64) { r.Isovalue = float32(v) }},
	"yaw":            {view: func(r *Request, v float64) { r.Camera.Yaw = v }},
	"pitch":          {view: func(r *Request, v float64) { r.Camera.Pitch = v }},
	"zoom":           {view: func(r *Request, v float64) { r.Camera.Zoom = v }},
}

// Steer applies named steering parameters: physics keys go to the
// simulator at its next step boundary; view keys retarget the renderer,
// and a changed view wakes the producer for a view frame that shows it
// without waiting for the next tick (see run). A changed isovalue
// invalidates the pipeline cost model, forcing a CM consultation before
// the next frame. Application is atomic: the keys edit copies that are
// installed only once every key resolved, so an unknown key rejects the
// whole request with nothing applied.
func (s *ManagedSession) Steer(params map[string]float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, req, steerSim := s.sim.Params(), s.req, false
	for k, v := range params {
		key, ok := steerKeys[k]
		switch {
		case !ok:
			return fmt.Errorf("steering: unknown steering parameter %q", k)
		case key.sim != nil:
			key.sim(&p, v)
			steerSim = true
		default:
			key.view(&req, v)
		}
	}
	if req.Isovalue != s.req.Isovalue {
		// Cost model changed: rebuild and re-optimize next frame.
		s.pipe = nil
		s.pipeGen++
	}
	if req.Camera != s.req.Camera || req.Isovalue != s.req.Isovalue {
		s.viewGen++
		if s.viewers > 0 {
			select {
			case s.kick <- struct{}{}:
			default:
			}
		}
	}
	s.req = req
	if steerSim {
		s.sim.SetParams(p)
	}
	return nil
}

// Status reports session state for the GUI sidebar and the service's
// sessions listing.
func (s *ManagedSession) Status() map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.sim.Params()
	st := map[string]any{
		"id":              s.ID,
		"simulator":       s.req.Simulator,
		"variable":        s.req.Variable,
		"method":          s.req.Method,
		"source_node":     s.req.SourceNode,
		"client_nodes":    s.req.Destinations(),
		"cycle":           s.sim.Cycle(),
		"sim_time":        s.sim.Time(),
		"frame_seq":       s.seq,
		"viewers":         s.viewers,
		"renders":         s.renders,
		"isovalue":        s.req.Isovalue,
		"left_pressure":   p.LeftPressure,
		"left_density":    p.LeftDensity,
		"reoptimizations": s.reopts,
		"adaptations":     s.adapts,
		"max_tier":        s.mgr.cfg.MaxTier.String(),
	}
	if s.tree != nil {
		// A lone viewer's path runs source → client; a fan-out reports the
		// shared prefix here and each branch's full path below.
		if len(s.tree.Branches) == 1 {
			st["vrt_path"] = s.tree.BranchPath(0)
		} else {
			st["vrt_path"] = s.tree.SharedPath()
		}
		st["vrt_delay_s"] = s.tree.Delay
		st["tree_shared_delay_s"] = s.tree.SharedDelay
		branches := make([]map[string]any, len(s.tree.Branches))
		for i, b := range s.tree.Branches {
			branches[i] = map[string]any{
				"dst": b.Dst, "path": s.tree.BranchPath(i), "delay_s": b.Delay,
				"tier": b.Tier.String(),
			}
		}
		st["tree_branches"] = branches
	}
	if s.optErr != nil {
		st["optimize_error"] = s.optErr.Error()
	}
	if s.renderErr != nil {
		st["render_error"] = s.renderErr.Error()
	}
	return st
}

// Request returns a copy of the session's current request.
func (s *ManagedSession) Request() Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.req
}

// Mapping returns the installed tree's cost inputs for external
// re-pricing — the scenario engine's frame-delay-vs-prediction invariant
// re-evaluates placements under both the CM's estimate graph and the
// emulated network's ground truth. It reports the pipeline model, the
// source node, one placement per delivery branch, and the at-install
// predicted delay. ok is false before the first successful consultation.
// The returned pipeline and placements are live references treated as
// immutable by all holders.
func (s *ManagedSession) Mapping() (pipe *pipeline.Pipeline, src string, placements [][]string, predicted float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pipe == nil || s.tree == nil {
		return nil, "", nil, 0, false
	}
	return s.pipe, s.req.SourceNode, s.places, s.tree.Delay, true
}

// Viewers reports the currently attached viewer count (tracked and
// presence-only).
func (s *ManagedSession) Viewers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewers
}

// Renders reports how many frames were actually rendered; with lazy
// rendering this lags the frame sequence whenever no viewer is attached.
func (s *ManagedSession) Renders() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.renders
}
