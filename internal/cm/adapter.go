package cm

// Adapter is the monitor→adapt half of the control loop for one session:
// it watches observed (or freshly re-predicted) frame delays against the
// installed VRT's prediction and decides when the deviation is sustained
// enough to warrant re-optimization ("the mapping scheme is adaptively
// re-configured during runtime in response to drastic network or host
// condition changes", Section 5.3.2). One transient frame over budget —
// a cross-traffic burst, a jittered probe — is absorbed; DeviationWindow
// consecutive deviations trigger.
type Adapter struct {
	m      *Manager
	tol    float64
	window int

	streak int
}

// NewAdapter builds an Adapter with the Manager's configured deviation
// tolerance and window.
func (m *Manager) NewAdapter() *Adapter {
	return m.NewAdapterTuned(m.cfg.DeviationTolerance, m.cfg.DeviationWindow)
}

// NewAdapterTuned overrides the deviation parameters for one session
// (tol <= 0 and window <= 0 fall back to the Manager's configuration).
func (m *Manager) NewAdapterTuned(tol float64, window int) *Adapter {
	if tol <= 0 {
		tol = m.cfg.DeviationTolerance
	}
	if window <= 0 {
		window = m.cfg.DeviationWindow
	}
	return &Adapter{m: m, tol: tol, window: window}
}

// Observe feeds one frame's delay pair and reports whether the session
// should re-consult the optimizer now. predicted <= 0 (no installed VRT)
// never triggers.
func (a *Adapter) Observe(observed, predicted float64) bool {
	if predicted <= 0 || observed <= predicted*(1+a.tol) {
		a.streak = 0
		return false
	}
	a.streak++
	if a.streak < a.window {
		return false
	}
	a.streak = 0
	if a.m != nil {
		a.m.noteAdaptation()
	}
	return true
}

// Reset clears the deviation streak — call after installing a new VRT so
// the fresh mapping starts with a clean slate.
func (a *Adapter) Reset() { a.streak = 0 }
