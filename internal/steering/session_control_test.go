package steering

import (
	"context"
	"strings"
	"testing"
	"time"

	"ricsa/internal/simengine"
)

// TestSteerAtomicity walks the one steering-key table: every accepted key
// lands in exactly its simulator or request field, a steer carrying any
// unknown key is rejected wholesale — no parameter from the same request
// may land — and only a *changed* isovalue invalidates the cost model.
func TestSteerAtomicity(t *testing.T) {
	m := testManager(t, 1)
	// Bypass Create so no lifecycle goroutine steps the simulator under
	// the test; physics keys apply at the step boundary the test drives.
	s, err := newManagedSession(m, smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	state := func() (simengine.Params, Request, uint64) {
		s.sim.Step()
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.sim.Params(), s.req, s.pipeGen
	}

	fields := map[string]func(simengine.Params, Request) float64{
		"left_pressure":  func(p simengine.Params, _ Request) float64 { return p.LeftPressure },
		"left_density":   func(p simengine.Params, _ Request) float64 { return p.LeftDensity },
		"right_pressure": func(p simengine.Params, _ Request) float64 { return p.RightPressure },
		"right_density":  func(p simengine.Params, _ Request) float64 { return p.RightDensity },
		"gamma":          func(p simengine.Params, _ Request) float64 { return p.Gamma },
		"cfl":            func(p simengine.Params, _ Request) float64 { return p.CFL },
		"wind_velocity":  func(p simengine.Params, _ Request) float64 { return p.WindVelocity },
		"wind_density":   func(p simengine.Params, _ Request) float64 { return p.WindDensity },
		"isovalue":       func(_ simengine.Params, r Request) float64 { return float64(r.Isovalue) },
		"yaw":            func(_ simengine.Params, r Request) float64 { return r.Camera.Yaw },
		"pitch":          func(_ simengine.Params, r Request) float64 { return r.Camera.Pitch },
		"zoom":           func(_ simengine.Params, r Request) float64 { return r.Camera.Zoom },
	}
	if len(fields) != len(steerKeys) {
		t.Fatalf("test covers %d keys, the table has %d", len(fields), len(steerKeys))
	}
	for key, field := range fields {
		p0, r0, _ := state()
		// 0.25 is exact in float32, so the isovalue round-trips.
		want := field(p0, r0) + 0.25
		if err := s.Steer(map[string]float64{key: want}); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		p1, r1, _ := state()
		if got := field(p1, r1); got != want {
			t.Fatalf("%s: field reads %v after steer, want %v", key, got, want)
		}
		// Nothing else moved.
		for other, f := range fields {
			if other != key && f(p1, r1) != f(p0, r0) {
				t.Fatalf("steering %s also moved %s: %v -> %v", key, other, f(p0, r0), f(p1, r1))
			}
		}
	}

	p0, r0, gen0 := state()
	err = s.Steer(map[string]float64{"left_pressure": 99, "isovalue": 0.9, "yaw": 3, "bogus": 1})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("steer with an unknown key: err = %v, want it rejected by name", err)
	}
	p1, r1, gen1 := state()
	if p1 != p0 || r1.Isovalue != r0.Isovalue || r1.Camera != r0.Camera || gen1 != gen0 {
		t.Fatalf("rejected steer landed: params %+v -> %+v, request %+v -> %+v, pipeGen %d -> %d",
			p0, p1, r0, r1, gen0, gen1)
	}

	if err := s.Steer(map[string]float64{"isovalue": float64(r0.Isovalue)}); err != nil {
		t.Fatal(err)
	}
	if _, _, gen := state(); gen != gen0 {
		t.Fatalf("unchanged isovalue bumped pipeGen %d -> %d", gen0, gen)
	}
	if err := s.Steer(map[string]float64{"isovalue": float64(r0.Isovalue) + 0.125}); err != nil {
		t.Fatal(err)
	}
	if _, _, gen := state(); gen != gen0+1 {
		t.Fatalf("changed isovalue: pipeGen %d -> %d, want one bump", gen0, gen)
	}
}

// TestCreateRejectsUnboundedGeometry pins the ceilings on what a request —
// which arrives from the network — may ask the simulator for, and that a
// session sitting exactly at the step ceiling still stops when told to.
func TestCreateRejectsUnboundedGeometry(t *testing.T) {
	m := testManager(t, 2)
	cases := []struct {
		name              string
		nx, ny, nz, steps int
		wantErr           string
	}{
		{"repo's largest grid", 96, 48, 48, 2, ""},
		{"axis at ceiling", maxGridAxis, 8, 8, 1, ""},
		{"axis past ceiling", maxGridAxis + 1, 1, 1, 1, "cells per axis"},
		{"every axis huge", 100000, 100000, 100000, 1, "cells per axis"},
		{"product overflows int64 to zero", 1 << 32, 1 << 32, 1, 1, "cells per axis"},
		{"negative-wrapping product", 1 << 62, 2, 1, 1, "cells per axis"},
		{"cells past ceiling, axes legal", 1024, 1024, 8, 1, "cells in all"},
		{"steps past ceiling", 16, 8, 8, maxStepsPerFrame + 1, "steps per frame"},
		{"steps absurd", 16, 8, 8, 1_000_000_000, "steps per frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := smallRequest()
			req.NX, req.NY, req.NZ, req.StepsPerFrame = tc.nx, tc.ny, tc.nz, tc.steps
			err := checkGeometry(req)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("legal geometry rejected: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
			}
			if tc.wantErr == "" {
				return
			}
			if _, err := m.Create(req); err == nil {
				t.Fatal("Create accepted what checkGeometry rejects")
			}
			if m.Len() != 0 {
				t.Fatal("a rejected request left a session behind")
			}
		})
	}

	req := smallRequest()
	req.NX, req.NY, req.NZ, req.StepsPerFrame = 3, 1, 1, maxStepsPerFrame
	s, err := m.CreateTuned(req, time.Millisecond, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Destroy(s.ID) }()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-ctx.Done():
		t.Fatal("Destroy of a session at the step ceiling did not return")
	}
}
