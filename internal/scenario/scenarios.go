package scenario

import (
	"fmt"
	"strings"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/netsim"
	"ricsa/internal/steering"
)

// The canned scenario suite: each maps a WAN misbehaviour class from the
// paper's Section 5.3.2 adaptation story onto a deterministic script. All
// run as plain `go test` cases (scenario_test.go) and, at longer soak
// durations, via `ricsa-bench -exp scenario`.

// sessionRequest is the suite's standard monitoring request: a small Sod
// grid so per-frame work is control-dominated, endpoints per the caller.
func sessionRequest(src string, dsts ...string) steering.Request {
	req := steering.DefaultRequest()
	req.SourceNode = src
	if len(dsts) == 1 {
		req.ClientNode = dsts[0]
		req.ClientNodes = nil
	} else {
		req.ClientNode = ""
		req.ClientNodes = dsts
	}
	req.NX, req.NY, req.NZ = 16, 8, 8
	req.StepsPerFrame = 1
	req.BlockEdge = 4
	return req
}

// routedRequest is the fault scenarios' request: the paper's full-size grid,
// large enough that transfer cost drives the optimizer through the UT/NCState
// compute sites — the paths the scripts then degrade.
func routedRequest(src string, dsts ...string) steering.Request {
	req := sessionRequest(src, dsts...)
	req.NX, req.NY, req.NZ = 48, 48, 48
	req.BlockEdge = 8
	return req
}

// row returns the last sample row for alias at or before at (nil if none).
func row(r *Result, alias string, at time.Duration) *SampleRow {
	var best *SampleRow
	for i := range r.Samples {
		s := &r.Samples[i]
		if s.Alias == alias && s.At <= at {
			best = s
		}
	}
	return best
}

// SteadyState: two sessions on a healthy WAN with the Prober running. The
// baseline every fault scenario implicitly diffs against: pacing holds, the
// tolerance gate absorbs cross-traffic wobble, and nothing adapts.
func SteadyState() Scenario {
	return Scenario{
		Name:          "steady-state",
		Description:   "healthy WAN, two sessions, prober on: frames flow, no adaptations",
		Seed:          11,
		Duration:      30 * time.Second,
		ProbeInterval: 500 * time.Millisecond,
		Events: []Event{
			StartSession(0, "s1", sessionRequest(netsim.GaTech, netsim.ORNL)),
			StartSession(500*time.Millisecond, "s2", sessionRequest(netsim.OSU, netsim.ORNL)),
		},
		Verify: func(r *Result) error {
			if len(r.Violations) != 0 {
				return fmt.Errorf("violations: %v", r.Violations)
			}
			if r.Adaptations != 0 {
				return fmt.Errorf("healthy run adapted %d times", r.Adaptations)
			}
			for _, a := range []string{"s1", "s2"} {
				if r.Frames[a] < 30 {
					return fmt.Errorf("%s produced only %d frames", a, r.Frames[a])
				}
				if r.Reopts[a] < 2 {
					return fmt.Errorf("%s consulted the CM only %d times", a, r.Reopts[a])
				}
			}
			return nil
		},
	}
}

// LinkDegradeAndAdapt: the session's fast path collapses to 2% capacity
// mid-run; the Prober's EWMA walks the estimate down until the drift
// re-stamps the graph and the Adapter forces a re-optimization off the
// degraded path.
func LinkDegradeAndAdapt() Scenario {
	return Scenario{
		Name:              "link-degrade-and-adapt",
		Description:       "GaTech-UT collapses to 2%: prober detects, adapter re-optimizes",
		Seed:              7,
		Duration:          40 * time.Second,
		ProbeInterval:     500 * time.Millisecond,
		ProbeLinksPerTick: 4,
		// Scheduled reopts off (first consult aside): reconfiguration must
		// come from the Adapter noticing the drift, as in Section 5.3.2.
		ReoptimizeEvery: 1 << 20,
		Events: []Event{
			StartSession(0, "s1", routedRequest(netsim.GaTech, netsim.ORNL)),
			ScaleLink(8*time.Second, netsim.GaTech, netsim.UT, 0.02),
		},
		Verify: func(r *Result) error {
			if len(r.Violations) != 0 {
				return fmt.Errorf("violations: %v", r.Violations)
			}
			if r.Restamps == 0 {
				return fmt.Errorf("collapse never re-stamped the graph")
			}
			if r.Adapts["s1"] == 0 {
				return fmt.Errorf("adapter never fired (reopts=%d restamps=%d)", r.Reopts["s1"], r.Restamps)
			}
			final := row(r, "s1", r.Samples[len(r.Samples)-1].At)
			if final == nil || final.Estimated < 0 {
				return fmt.Errorf("no final mapping estimate")
			}
			return nil
		},
	}
}

// LinkFlapStorm: the fast path flaps dark/up repeatedly. Probes into the
// dark phases time out on the probe budget and mark the edge repulsive; the
// stack must survive the storm with monotone frames and keep re-stamping.
func LinkFlapStorm() Scenario {
	events := []Event{
		StartSession(0, "s1", routedRequest(netsim.GaTech, netsim.ORNL)),
	}
	events = append(events, LinkFlaps(6*time.Second, netsim.GaTech, netsim.UT, 3, 3*time.Second)...)
	return Scenario{
		Name:              "link-flap-storm",
		Description:       "GaTech-UT flaps dark 3x: probe timeouts, restamps, no wedge",
		Seed:              23,
		Duration:          36 * time.Second,
		ProbeInterval:     250 * time.Millisecond,
		ProbeLinksPerTick: 4,
		ProbeBudget:       time.Second,
		Events:            events,
		Verify: func(r *Result) error {
			if len(r.Violations) != 0 {
				return fmt.Errorf("violations: %v", r.Violations)
			}
			if r.Restamps < 2 {
				return fmt.Errorf("storm produced only %d restamps", r.Restamps)
			}
			if r.Frames["s1"] < 20 {
				return fmt.Errorf("session starved during the storm: %d frames", r.Frames["s1"])
			}
			mid := row(r, "s1", 18*time.Second)
			end := row(r, "s1", r.Duration())
			if mid == nil || end == nil || end.Seq <= mid.Seq {
				return fmt.Errorf("frames stopped advancing after the storm")
			}
			return nil
		},
	}
}

// FlashCrowd: session churn plus a 40-viewer crowd arriving on one session.
// Lazy rendering must switch eager only while the crowd is present, and the
// crowd must not perturb the other sessions' control behaviour.
func FlashCrowd() Scenario {
	return Scenario{
		Name:          "flash-crowd",
		Description:   "session churn + 40 viewers join one session, then leave",
		Seed:          5,
		Duration:      30 * time.Second,
		ProbeInterval: 500 * time.Millisecond,
		Events: []Event{
			StartSession(0, "s1", sessionRequest(netsim.GaTech, netsim.ORNL)),
			StartSession(4*time.Second, "s2", sessionRequest(netsim.OSU, netsim.ORNL)),
			StartSession(5*time.Second, "s3", sessionRequest(netsim.GaTech, netsim.ORNL, netsim.UT)),
			ViewersJoin(8*time.Second, "s1", 40),
			ViewersLeave(16*time.Second, "s1", 40),
			StopSession(20*time.Second, "s2"),
			StopSession(22*time.Second, "s3"),
		},
		Verify: func(r *Result) error {
			if len(r.Violations) != 0 {
				return fmt.Errorf("violations: %v", r.Violations)
			}
			before := row(r, "s1", 8*time.Second)
			during := row(r, "s1", 16*time.Second)
			after := row(r, "s1", r.Duration())
			if before == nil || during == nil || after == nil {
				return fmt.Errorf("missing samples")
			}
			if during.Renders <= before.Renders {
				return fmt.Errorf("crowd did not trigger eager rendering: %d -> %d renders",
					before.Renders, during.Renders)
			}
			// After the crowd leaves, rendering goes lazy again: at most one
			// straggler render (a frame in flight at departure).
			if after.Renders > during.Renders+1 {
				return fmt.Errorf("lazy rendering did not resume: %d -> %d renders",
					during.Renders, after.Renders)
			}
			if after.Seq <= during.Seq {
				return fmt.Errorf("frames stopped after the crowd left")
			}
			if r.Frames["s2"] == 0 || r.Frames["s3"] == 0 {
				return fmt.Errorf("churned sessions produced no frames")
			}
			return nil
		},
	}
}

// ProbeStarvedDrift: the Prober is off, so when the WAN quietly degrades
// the CM's estimates go stale — predictions stay rosy while ground truth
// drifts, and nothing adapts. A forced remeasure snaps the estimates back
// and the Adapter fires. This is the scenario that justifies continuous
// probing.
func ProbeStarvedDrift() Scenario {
	return Scenario{
		Name:            "probe-starved-drift",
		Description:     "prober off: truth drifts from stale estimates until a forced remeasure",
		Seed:            13,
		Duration:        34 * time.Second,
		ReoptimizeEvery: 1 << 20, // adapter-only reconfiguration
		Events: []Event{
			StartSession(0, "s1", routedRequest(netsim.GaTech, netsim.ORNL)),
			ScaleLink(6*time.Second, netsim.GaTech, netsim.UT, 0.1),
			ScaleLink(6*time.Second, netsim.UT, netsim.ORNL, 0.1),
			Remeasure(22 * time.Second),
		},
		Verify: func(r *Result) error {
			if len(r.Violations) != 0 {
				return fmt.Errorf("violations: %v", r.Violations)
			}
			stale := row(r, "s1", 20*time.Second)
			if stale == nil {
				return fmt.Errorf("missing pre-remeasure sample")
			}
			if stale.Adapts != 0 {
				return fmt.Errorf("adapter fired at %s with no probes to see the drift", fmtD(stale.At))
			}
			// The drift is invisible to the CM (estimate tracks prediction)
			// but visible in ground truth.
			if stale.Estimated > stale.Predicted*1.2 {
				return fmt.Errorf("stale estimate moved without probes: pred=%g est=%g",
					stale.Predicted, stale.Estimated)
			}
			if stale.True < stale.Estimated*1.5 {
				return fmt.Errorf("ground truth did not drift: est=%g true=%g",
					stale.Estimated, stale.True)
			}
			if r.Adapts["s1"] == 0 {
				return fmt.Errorf("remeasure did not trigger adaptation")
			}
			if r.Restamps == 0 {
				return fmt.Errorf("remeasure did not re-stamp the graph")
			}
			return nil
		},
	}
}

// NodeFailure: the UT compute site fails outright — every link touching it
// goes dark — and later recovers. Probes time out, the optimizer routes
// around the dead site, and the mapping must not name UT while it is down.
func NodeFailure() Scenario {
	return Scenario{
		Name:              "node-failure",
		Description:       "UT fails: probes time out, mapping re-routes around the dead site",
		Seed:              31,
		Duration:          38 * time.Second,
		ProbeInterval:     400 * time.Millisecond,
		ProbeLinksPerTick: 4,
		ProbeBudget:       time.Second,
		ReoptimizeEvery:   1 << 20, // adapter-only reconfiguration
		Events: []Event{
			StartSession(0, "s1", routedRequest(netsim.GaTech, netsim.ORNL)),
			NodeDown(8*time.Second, netsim.UT),
			NodeUp(26*time.Second, netsim.UT),
		},
		Verify: func(r *Result) error {
			if len(r.Violations) != 0 {
				return fmt.Errorf("violations: %v", r.Violations)
			}
			if r.Adapts["s1"] == 0 {
				return fmt.Errorf("node failure never forced an adaptation")
			}
			// By late in the outage the installed mapping must avoid UT.
			late := row(r, "s1", 24*time.Second)
			if late == nil {
				return fmt.Errorf("missing outage sample")
			}
			if strings.Contains(late.Path, netsim.UT) {
				return fmt.Errorf("mapping still routes via the dead site at %s: %s", fmtD(late.At), late.Path)
			}
			if end := row(r, "s1", r.Duration()); end == nil || end.Seq <= late.Seq {
				return fmt.Errorf("frames stopped after recovery")
			}
			return nil
		},
	}
}

// duelFrameSize is the transport duels' frame payload: large enough that
// a NACK frame spans many chunks (so seeded loss forces retransmission
// sweeps into the tail) and an FEC generation uses the full source-block
// budget.
const duelFrameSize = 1 << 20

// duelTrainChecks validates the structural invariants every duel side
// shares: all trains present, the expected delivery model used, and every
// frame delivered — a reliable transport may fall back, never stall.
func duelTrainChecks(r *Result, mode cost.TransportMode, labels ...string) error {
	for _, lbl := range labels {
		ts, ok := r.FrameTrains[lbl]
		if !ok {
			return fmt.Errorf("train %q missing", lbl)
		}
		if ts.Mode != mode.String() {
			return fmt.Errorf("train %q ran %s, want %s", lbl, ts.Mode, mode)
		}
		if ts.Delivered != ts.Frames {
			return fmt.Errorf("train %q delivered %d of %d frames", lbl, ts.Delivered, ts.Frames)
		}
	}
	return nil
}

// fecDuelFlapStorm builds one side of the flap-storm transport duel: the
// link-flap-storm fault shape (the GaTech-UT path flapping dark under an
// active prober) with a sustained 8% loss process on the GaTech-ORNL
// frame path. The two sides run the identical script and seed and differ
// only in TransportMode; the FEC side's Verify re-runs the NACK sibling
// and asserts the head-to-head tail-delay claim.
func fecDuelFlapStorm(mode cost.TransportMode) Scenario {
	events := []Event{
		StartSession(0, "s1", sessionRequest(netsim.GaTech, netsim.ORNL)),
		SetLoss(time.Second, netsim.GaTech, netsim.ORNL, 0.08),
	}
	events = append(events, LinkFlaps(4*time.Second, netsim.GaTech, netsim.UT, 2, 2*time.Second)...)
	events = append(events,
		FrameTrain(12*time.Second, "storm", netsim.GaTech, netsim.ORNL, 24, duelFrameSize),
		FrameTrain(15*time.Second, "late", netsim.GaTech, netsim.ORNL, 16, duelFrameSize),
	)
	sc := Scenario{
		Name:              "fec-duel-flap-storm-" + mode.String(),
		Description:       "flap storm + sustained 8% loss on the frame path, delivered in " + mode.String() + " mode",
		Seed:              47,
		Duration:          16 * time.Second,
		ProbeInterval:     250 * time.Millisecond,
		ProbeLinksPerTick: 4,
		ProbeBudget:       time.Second,
		TransportMode:     mode,
		Events:            events,
	}
	if mode == cost.TransportNACK {
		sc.Verify = func(r *Result) error {
			if len(r.Violations) != 0 {
				return fmt.Errorf("violations: %v", r.Violations)
			}
			return duelTrainChecks(r, mode, "storm", "late")
		}
		return sc
	}
	sc.Verify = func(r *Result) error {
		if len(r.Violations) != 0 {
			return fmt.Errorf("violations: %v", r.Violations)
		}
		if err := duelTrainChecks(r, mode, "storm", "late"); err != nil {
			return err
		}
		late := r.FrameTrains["late"]
		if late.Redundancy <= 0 {
			return fmt.Errorf("the prober's loss estimate never provisioned redundancy")
		}
		if late.Decoded == 0 {
			return fmt.Errorf("no frame decoded from its coded burst")
		}
		// The head-to-head claim: same seed, same script, same loss draws
		// parameterization — FEC's tail frame delay must beat NACK's under
		// sustained loss.
		sib, err := Run(fecDuelFlapStorm(cost.TransportNACK))
		if err != nil {
			return fmt.Errorf("NACK sibling: %w", err)
		}
		nack := sib.FrameTrains["late"]
		if !(late.P99 < nack.P99) {
			return fmt.Errorf("FEC p99 %.4fs does not beat NACK p99 %.4fs under sustained loss",
				late.P99, nack.P99)
		}
		return nil
	}
	return sc
}

// FECDuelFlapStormNACK is the flap-storm duel's NACK side.
func FECDuelFlapStormNACK() Scenario { return fecDuelFlapStorm(cost.TransportNACK) }

// FECDuelFlapStormFEC is the flap-storm duel's FEC side; its Verify
// carries the head-to-head tail-delay assertion.
func FECDuelFlapStormFEC() Scenario { return fecDuelFlapStorm(cost.TransportFEC) }

// fecDuelProbeStarved builds one side of the probe-starved transport
// duel: the prober is off, so FEC redundancy is provisioned from whatever
// the last full sweep measured. Mid-run the loss process jumps from 6% to
// 35% with no probe to see it — the stale estimate under-provisions every
// generation and the FEC side must take the counted fallback path on
// every affected frame without ever stalling. A late remeasure
// re-provisions and decode resumes.
func fecDuelProbeStarved(mode cost.TransportMode) Scenario {
	events := []Event{
		StartSession(0, "s1", sessionRequest(netsim.GaTech, netsim.ORNL)),
		SetLoss(time.Second, netsim.GaTech, netsim.ORNL, 0.06),
		Remeasure(2 * time.Second),
		FrameTrain(4*time.Second, "provisioned", netsim.GaTech, netsim.ORNL, 16, duelFrameSize),
		SetLoss(6*time.Second, netsim.GaTech, netsim.ORNL, 0.35),
		FrameTrain(8*time.Second, "starved", netsim.GaTech, netsim.ORNL, 16, duelFrameSize),
		Remeasure(10 * time.Second),
		FrameTrain(11*time.Second, "recovered", netsim.GaTech, netsim.ORNL, 16, duelFrameSize),
	}
	sc := Scenario{
		Name:          "fec-duel-probe-starved-" + mode.String(),
		Description:   "prober off, loss drifts 6%->35% past the stale estimate, delivered in " + mode.String() + " mode",
		Seed:          53,
		Duration:      12 * time.Second,
		TransportMode: mode,
		Events:        events,
	}
	labels := []string{"provisioned", "starved", "recovered"}
	if mode == cost.TransportNACK {
		sc.Verify = func(r *Result) error {
			if len(r.Violations) != 0 {
				return fmt.Errorf("violations: %v", r.Violations)
			}
			return duelTrainChecks(r, mode, labels...)
		}
		return sc
	}
	sc.Verify = func(r *Result) error {
		if len(r.Violations) != 0 {
			return fmt.Errorf("violations: %v", r.Violations)
		}
		if err := duelTrainChecks(r, mode, labels...); err != nil {
			return err
		}
		prov := r.FrameTrains["provisioned"]
		starved := r.FrameTrains["starved"]
		rec := r.FrameTrains["recovered"]
		if prov.Redundancy <= 0 {
			return fmt.Errorf("remeasure did not provision redundancy")
		}
		// The drift regime: loss far beyond the stale provisioning must
		// surface as counted fallbacks on a still-delivering transport,
		// never as a stall.
		if starved.Fallbacks == 0 {
			return fmt.Errorf("loss beyond the provisioned redundancy produced no counted fallback")
		}
		if starved.P99 >= trainBudget.Seconds() {
			return fmt.Errorf("starved train stalled into the frame budget: p99=%.4fs", starved.P99)
		}
		// Re-provisioning from fresh measurements restores in-burst decode.
		if rec.Redundancy <= starved.Redundancy {
			return fmt.Errorf("remeasure did not raise redundancy: %.3f -> %.3f",
				starved.Redundancy, rec.Redundancy)
		}
		if rec.Decoded <= starved.Decoded {
			return fmt.Errorf("re-provisioning did not restore decode: %d -> %d of %d",
				starved.Decoded, rec.Decoded, rec.Frames)
		}
		// Head-to-head on the well-provisioned high-loss regime.
		sib, err := Run(fecDuelProbeStarved(cost.TransportNACK))
		if err != nil {
			return fmt.Errorf("NACK sibling: %w", err)
		}
		nack := sib.FrameTrains["recovered"]
		if !(rec.P99 < nack.P99) {
			return fmt.Errorf("FEC p99 %.4fs does not beat NACK p99 %.4fs at 35%% loss",
				rec.P99, nack.P99)
		}
		return nil
	}
	return sc
}

// FECDuelProbeStarvedNACK is the probe-starved duel's NACK side.
func FECDuelProbeStarvedNACK() Scenario { return fecDuelProbeStarved(cost.TransportNACK) }

// FECDuelProbeStarvedFEC is the probe-starved duel's FEC side; its Verify
// carries the counted-fallback-not-stall assertion and the head-to-head.
func FECDuelProbeStarvedFEC() Scenario { return fecDuelProbeStarved(cost.TransportFEC) }

// soakAliases returns the aliases s<lo>..s<hi> inclusive.
// tierDuelChecks reconciles the run's tier telemetry against the engine's
// scripted ground truth: every tier frame the service counted as sent must
// match a scripted poll that delivered one, byte counters must agree on
// which tiers ever served, and the full-tier encode counter must equal the
// session renders (one full encode per rendered frame, by construction).
func tierDuelChecks(r *Result) error {
	if len(r.Violations) != 0 {
		return fmt.Errorf("violations: %v", r.Violations)
	}
	for t := 0; t < cost.NumTiers; t++ {
		name := cost.Tier(t).String()
		if r.Telemetry.TierFramesSent[t] != r.TierDelivered[t] {
			return fmt.Errorf("telemetry sent %d %s frames, scripted polls delivered %d",
				r.Telemetry.TierFramesSent[t], name, r.TierDelivered[t])
		}
		if (r.Telemetry.TierBytesSent[t] > 0) != (r.TierDelivered[t] > 0) {
			return fmt.Errorf("%s byte counter (%d) disagrees with %d delivered frames",
				name, r.Telemetry.TierBytesSent[t], r.TierDelivered[t])
		}
	}
	renders := 0
	for _, n := range r.Renders {
		renders += n
	}
	if r.Telemetry.TierEncodes[cost.TierFull] != uint64(renders) {
		return fmt.Errorf("telemetry counted %d full-tier encodes, sessions rendered %d frames",
			r.Telemetry.TierEncodes[cost.TierFull], renders)
	}
	if r.TierDelivered[cost.TierFull] == 0 {
		return fmt.Errorf("no full-tier frames delivered")
	}
	return nil
}

// tierFlashCrowd builds one side of the viewer-tier duel: a mixed-
// capability flash crowd lands on a session whose frame path is congested
// to a fifth of its bandwidth. Both sides run the identical script and
// seed and differ only in the MaxTier budget: the uniform side's zero
// value clamps every hint to the full frame (the historical behaviour),
// the mixed side lets constrained viewers negotiate down the ladder. The
// mixed side's Verify re-runs the uniform sibling and asserts the
// constrained crowd's head-to-head tail-delay claim.
func tierFlashCrowd(maxTier cost.Tier) Scenario {
	side := "uniform"
	if maxTier != cost.TierFull {
		side = "mixed"
	}
	events := []Event{
		StartSession(0, "s1", sessionRequest(netsim.GaTech, netsim.ORNL)),
		ScaleLink(time.Second, netsim.GaTech, netsim.ORNL, 0.2),
		TrackViewersTier(2*time.Second, "s1", 4, cost.TierFull),
		TrackViewersTier(2*time.Second, "s1", 6, cost.TierQuarter),
		TrackViewersTier(2*time.Second, "s1", 3, cost.TierHalf),
		TrackViewersTier(2*time.Second, "s1", 2, cost.TierDelta),
		PollViewers(4*time.Second, "s1"),
		PollViewers(6*time.Second, "s1"),
		PollViewers(8*time.Second, "s1"),
		PollViewers(10*time.Second, "s1"),
		TierFrameTrain(12*time.Second, "constrained", netsim.GaTech, netsim.ORNL, 24, duelFrameSize, cost.TierQuarter),
		TierFrameTrain(14*time.Second, "unconstrained", netsim.GaTech, netsim.ORNL, 12, duelFrameSize, cost.TierFull),
	}
	sc := Scenario{
		Name:          "tier-flash-crowd-" + side,
		Description:   "congested frame path + mixed-capability crowd under tier budget " + maxTier.String(),
		Seed:          59,
		Duration:      16 * time.Second,
		ProbeInterval: 250 * time.Millisecond,
		MaxTier:       maxTier,
		Events:        events,
	}
	if maxTier == cost.TierFull {
		sc.Verify = func(r *Result) error {
			if err := tierDuelChecks(r); err != nil {
				return err
			}
			// The zero budget clamps everything: no reduced tier is ever
			// negotiated, encoded, or delivered.
			for t := 1; t < cost.NumTiers; t++ {
				if r.TierDelivered[t] != 0 || r.Telemetry.TierEncodes[t] != 0 {
					return fmt.Errorf("%s tier escaped the full-resolution budget (%d delivered, %d encodes)",
						cost.Tier(t), r.TierDelivered[t], r.Telemetry.TierEncodes[t])
				}
			}
			for _, lbl := range []string{"constrained", "unconstrained"} {
				if got := r.FrameTrains[lbl].Tier; got != "full" {
					return fmt.Errorf("train %q ran at tier %s under the full budget", lbl, got)
				}
			}
			return nil
		}
		return sc
	}
	sc.Verify = func(r *Result) error {
		if err := tierDuelChecks(r); err != nil {
			return err
		}
		// Every hinted rung was negotiated, encoded, and served.
		for t := 1; t < cost.NumTiers; t++ {
			if r.TierDelivered[t] == 0 || r.Telemetry.TierEncodes[t] == 0 {
				return fmt.Errorf("%s tier never served (%d delivered, %d encodes)",
					cost.Tier(t), r.TierDelivered[t], r.Telemetry.TierEncodes[t])
			}
		}
		con := r.FrameTrains["constrained"]
		if con.Tier != "quarter" {
			return fmt.Errorf("constrained train ran at tier %s, want quarter", con.Tier)
		}
		if got := r.FrameTrains["unconstrained"].Tier; got != "full" {
			return fmt.Errorf("unconstrained train ran at tier %s, want full", got)
		}
		if con.Delivered != con.Frames {
			return fmt.Errorf("constrained train delivered %d of %d frames", con.Delivered, con.Frames)
		}
		// The head-to-head claim: same script, same seed, same congestion —
		// a constrained viewer negotiating down the ladder must see strictly
		// better tail frame delay than under the uniform full-frame budget.
		sib, err := Run(tierFlashCrowd(cost.TierFull))
		if err != nil {
			return fmt.Errorf("uniform sibling: %w", err)
		}
		uni := sib.FrameTrains["constrained"]
		if !(con.P99 < uni.P99) {
			return fmt.Errorf("mixed-tier p99 %.4fs does not beat uniform p99 %.4fs on the congested path",
				con.P99, uni.P99)
		}
		return nil
	}
	return sc
}

// TierFlashCrowdUniform is the tier duel's full-frames-only side.
func TierFlashCrowdUniform() Scenario { return tierFlashCrowd(cost.TierFull) }

// TierFlashCrowdMixed is the tier duel's negotiated-ladder side; its
// Verify carries the head-to-head tail-delay assertion.
func TierFlashCrowdMixed() Scenario { return tierFlashCrowd(cost.TierDelta) }

func soakAliases(lo, hi int) []string {
	out := make([]string, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, fmt.Sprintf("s%d", i))
	}
	return out
}

// soakWant is a load-soak's hand-computed expected outcome. Every quantity
// is checked three ways where possible: the telemetry counter, the
// engine-side ground truth counted at the script's call sites, and the
// constant derived from the scenario's admission arithmetic.
type soakWant struct {
	admitted         int
	rejectedOverload int
	rejectedLimit    int
	destroyed        int
	attached         int
	evicted          int
	detached         int
	minFrames        uint64
}

// soakVerify reconciles a soak Result against soakWant: service telemetry
// == script ground truth == expected constants, and per-session frame
// counters sum exactly to the collector's FramesProduced/FramesRendered.
func soakVerify(w soakWant) func(*Result) error {
	return func(r *Result) error {
		if len(r.Violations) != 0 {
			return fmt.Errorf("violations: %v", r.Violations)
		}
		t := r.Telemetry
		checks := []struct {
			name   string
			tel    uint64
			engine int
			want   int
		}{
			{"admitted", t.SessionsAdmitted, r.Admitted, w.admitted},
			{"rejected-overload", t.SessionsRejectedOverload, r.RejectedOverload, w.rejectedOverload},
			{"rejected-limit", t.SessionsRejectedLimit, r.RejectedLimit, w.rejectedLimit},
			{"viewers-attached", t.ViewersAttached, r.ViewersTracked, w.attached},
			{"viewers-evicted", t.ViewersEvicted, r.EvictedObserved, w.evicted},
			{"viewers-detached", t.ViewersDetached, r.ViewersClosed, w.detached},
		}
		for _, c := range checks {
			if c.tel != uint64(c.engine) || c.engine != c.want {
				return fmt.Errorf("%s: telemetry=%d engine=%d want=%d", c.name, c.tel, c.engine, c.want)
			}
		}
		// Destroyed is snapshot before the deferred Shutdown, so it counts
		// exactly the script's StopSession calls.
		if t.SessionsDestroyed != uint64(w.destroyed) {
			return fmt.Errorf("destroyed: telemetry=%d want=%d", t.SessionsDestroyed, w.destroyed)
		}
		var frames uint64
		for _, n := range r.Frames {
			frames += n
		}
		if frames != t.FramesProduced {
			return fmt.Errorf("frame reconciliation: sessions saw %d, telemetry recorded %d", frames, t.FramesProduced)
		}
		var renders int
		for _, n := range r.Renders {
			renders += n
		}
		if uint64(renders) != t.FramesRendered {
			return fmt.Errorf("render reconciliation: sessions saw %d, telemetry recorded %d", renders, t.FramesRendered)
		}
		if t.FramesProduced < w.minFrames {
			return fmt.Errorf("soak produced only %d frames (want >= %d)", t.FramesProduced, w.minFrames)
		}
		if t.FramesRendered == 0 {
			return fmt.Errorf("no frame was eager-rendered despite tracked viewers")
		}
		if t.StageProduceNS <= 0 || t.StageSimNS <= 0 {
			return fmt.Errorf("stage timings missing: produce=%dns sim=%dns", t.StageProduceNS, t.StageSimNS)
		}
		if t.RecordsDropped != 0 {
			return fmt.Errorf("counters-only collector dropped %d records", t.RecordsDropped)
		}
		return nil
	}
}

// LoadSoak: the overload headline. 200 admission attempts race a frame
// budget that fits 160 sessions (FrameCost/FramePeriod = 0.1 utilization
// each against a 16.0 budget), 2000 tracked viewers attach, and only the
// first 40 sessions' viewers keep polling — the other 1000 viewers stall
// and must all be evicted at MaxViewerLag. Mid-run the script destroys 10
// sessions and proves the watermark refunds their load by admitting
// exactly 10 of 15 late arrivals. Everything is scripted on the virtual
// clock, so admission outcomes, eviction counts, and the reconciliation
// between telemetry counters and engine ground truth are byte-identical
// per seed.
func LoadSoak() Scenario {
	var events []Event
	req := sessionRequest(netsim.GaTech, netsim.ORNL)
	// Wave 1: 200 attempts at 10ms spacing. 160 fit under the watermark.
	for i := 1; i <= 200; i++ {
		events = append(events, TryStartSession(time.Duration(i-1)*10*time.Millisecond,
			fmt.Sprintf("s%d", i), req))
	}
	// 25 tracked viewers on each of the first 80 admitted sessions.
	for i := 1; i <= 80; i++ {
		events = append(events, TrackViewers(2500*time.Millisecond, fmt.Sprintf("s%d", i), 25))
	}
	// s1..s40's viewers poll every second; s41..s80's never do.
	polled := soakAliases(1, 40)
	for at := 3 * time.Second; at <= 11*time.Second; at += time.Second {
		events = append(events, PollViewers(at, polled...))
	}
	// Churn: free 10 admission slots (1.0 of load), then probe the refund
	// with 15 more attempts — exactly 10 must be admitted.
	for i := 151; i <= 160; i++ {
		events = append(events, StopSession(8*time.Second, fmt.Sprintf("s%d", i)))
	}
	for i := 201; i <= 215; i++ {
		events = append(events, TryStartSession(8500*time.Millisecond+time.Duration(i-201)*10*time.Millisecond,
			fmt.Sprintf("s%d", i), req))
	}
	events = append(events,
		CloseViewers(10500*time.Millisecond, "s1", 5),
		// Reap: polling the stalled sessions' viewers observes every eviction.
		PollViewers(11500*time.Millisecond, soakAliases(41, 80)...),
	)
	return Scenario{
		Name:         "load-soak",
		Description:  "200 admissions vs a 160-session frame budget, 2000 viewers vs slow-consumer eviction",
		Seed:         42,
		Duration:     12 * time.Second,
		CountExact:   true,
		SampleEvery:  3 * time.Second,
		FramePeriod:  200 * time.Millisecond,
		MaxSessions:  300, // watermark, not the hard cap, must bind
		FrameBudget:  16.0,
		FrameCost:    20 * time.Millisecond,
		MaxViewerLag: 16,
		Events:       events,
		Verify: soakVerify(soakWant{
			admitted:         170, // 160 wave-1 + 10 refunded slots
			rejectedOverload: 45,  // 40 wave-1 + 5 wave-2
			destroyed:        10,
			attached:         2000,
			evicted:          1000, // s41..s80 x 25
			detached:         5,
			minFrames:        2000,
		}),
	}
}

// All returns the canned suite in a stable order.
func All() []Scenario {
	return []Scenario{
		SteadyState(),
		LinkDegradeAndAdapt(),
		LinkFlapStorm(),
		FlashCrowd(),
		ProbeStarvedDrift(),
		NodeFailure(),
		LoadSoak(),
		FECDuelFlapStormNACK(),
		FECDuelFlapStormFEC(),
		FECDuelProbeStarvedNACK(),
		FECDuelProbeStarvedFEC(),
		TierFlashCrowdUniform(),
		TierFlashCrowdMixed(),
	}
}
