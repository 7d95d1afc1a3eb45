package experiments

import "testing"

// TestRunAdaptationRecovers is Section 5.3.2 as an invariant of the live
// session loop: on link-degrade-and-adapt the collapse raises s1's delay,
// the Adapter moves the loop off the collapsed GaTech–UT hop, and the
// recovered delay sits below the degraded peak.
func TestRunAdaptationRecovers(t *testing.T) {
	res, err := RunAdaptation()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("healthy %.3fs, degraded %.3fs, recovered %.3fs over %d samples, %v -> %v, %d adaptations, %d restamps",
		res.HealthyMean, res.DegradedPeak, res.RecoveredMean, res.Recovered,
		res.PathBefore, res.PathAfter, res.Adaptations, res.Restamps)
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptationCheckRejects breaks a passing result one property at a
// time: each must fail the Section 5.3.2 shape.
func TestAdaptationCheckRejects(t *testing.T) {
	good := AdaptationResult{
		HealthyMean: 0.2, DegradedPeak: 3, RecoveredMean: 0.25, Recovered: 15,
		Reconfigs: 1, Adaptations: 1, Restamps: 23,
		PathBefore: []string{"GaTech", "UT", "ORNL"},
		PathAfter:  []string{"GaTech", "ORNL"},
	}
	if err := good.Check(); err != nil {
		t.Fatal(err)
	}
	for name, breakIt := range map[string]func(*AdaptationResult){
		"no degradation":   func(r *AdaptationResult) { r.DegradedPeak = r.HealthyMean },
		"no recovery":      func(r *AdaptationResult) { r.RecoveredMean = r.DegradedPeak },
		"nothing after":    func(r *AdaptationResult) { r.Recovered = 0 },
		"same path":        func(r *AdaptationResult) { r.PathAfter = r.PathBefore },
		"via the dead hop": func(r *AdaptationResult) { r.PathAfter = []string{"GaTech", "UT", "LSU", "ORNL"} },
		"reversed hop":     func(r *AdaptationResult) { r.PathAfter = []string{"ORNL", "UT", "GaTech"} },
		"no adaptation":    func(r *AdaptationResult) { r.Adaptations = 0 },
		"no session reopt": func(r *AdaptationResult) { r.Reconfigs = 0 },
		"no restamp":       func(r *AdaptationResult) { r.Restamps = 0 },
	} {
		r := good
		breakIt(&r)
		if r.Check() == nil {
			t.Errorf("%s: Check passed %+v", name, r)
		}
	}
}
