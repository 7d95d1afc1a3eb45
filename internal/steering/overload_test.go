package steering

import (
	"context"
	"errors"
	"testing"
	"time"

	"ricsa/internal/telemetry"
)

// TestAdmissionWatermark drives the frame-budget admission path: each
// session charges FrameCost/FramePeriod utilization, and Create must
// reject with ErrOverloaded — not ErrSessionLimit — once the sum would
// cross FrameBudget, then admit again after a Destroy refunds the charge.
func TestAdmissionWatermark(t *testing.T) {
	m := NewSessionManager(ManagerConfig{
		MaxSessions:     100,
		ReoptimizeEvery: 1 << 30,
		Seed:            42,
		FrameBudget:     0.5,
		FrameCost:       50 * time.Millisecond,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})

	// util = 50ms / 200ms = 0.25 per session: two fit, the third must not.
	create := func() (*ManagedSession, error) {
		return m.CreateTuned(smallRequest(), 200*time.Millisecond, 48, 48)
	}
	a, err := create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := create(); err != nil {
		t.Fatal(err)
	}
	if got := m.LoadFraction(); got < 0.49 || got > 0.51 {
		t.Fatalf("LoadFraction = %v, want 0.5", got)
	}
	_, err = create()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third create: err = %v, want ErrOverloaded", err)
	}

	if err := m.Destroy(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := create(); err != nil {
		t.Fatalf("create after destroy should be admitted again: %v", err)
	}

	snap := m.Telemetry().Snapshot()
	if snap.SessionsAdmitted != 3 || snap.SessionsRejectedOverload != 1 || snap.SessionsDestroyed != 1 {
		t.Fatalf("counters wrong: %+v", snap)
	}
	if snap.SessionsRejectedLimit != 0 {
		t.Fatalf("overload rejection miscounted as limit rejection: %+v", snap)
	}
}

// TestAdmissionLimitStillWins checks the hard MaxSessions cap fires (with
// its own error and counter) before the watermark is consulted.
func TestAdmissionLimitStillWins(t *testing.T) {
	m := testManager(t, 1)
	createFast(t, m)
	_, err := m.CreateTuned(smallRequest(), 3*time.Millisecond, 48, 48)
	if !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("err = %v, want ErrSessionLimit", err)
	}
	snap := m.Telemetry().Snapshot()
	if snap.SessionsRejectedLimit != 1 || snap.SessionsRejectedOverload != 0 {
		t.Fatalf("counters wrong: %+v", snap)
	}
}

// evictionSession builds a produce-by-hand session (no lifecycle
// goroutine) on a manager with the given lag threshold.
func evictionSession(t *testing.T, maxLag int) (*SessionManager, *ManagedSession) {
	t.Helper()
	m := NewSessionManager(ManagerConfig{
		MaxSessions:     1,
		ReoptimizeEvery: 1 << 30,
		Seed:            42,
		MaxViewerLag:    maxLag,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	req := smallRequest()
	s, err := newManagedSession(m, req)
	if err != nil {
		t.Fatal(err)
	}
	s.ID = "s1"
	s.Width, s.Height = 48, 48
	s.sim.SetWorkers(1)
	return m, s
}

// TestViewerEvictionOnLag proves the slow-consumer policy: a tracked
// viewer that stops polling is evicted once it falls MaxViewerLag frames
// behind, a viewer that keeps polling survives, and a legacy presence
// Attach is exempt.
func TestViewerEvictionOnLag(t *testing.T) {
	m, s := evictionSession(t, 2)

	slow := s.AttachViewer()
	live := s.AttachViewer()
	legacyDetach := s.Attach()
	defer legacyDetach()

	for i := 0; i < 5; i++ {
		s.produce(telemetry.CauseTick)
		if _, _, err := live.Poll(); err != nil {
			t.Fatalf("live viewer poll after frame %d: %v", i+1, err)
		}
	}

	if !slow.Evicted() {
		t.Fatal("slow viewer not evicted after exceeding MaxViewerLag")
	}
	if _, _, err := slow.Poll(); !errors.Is(err, ErrViewerEvicted) {
		t.Fatalf("slow.Poll err = %v, want ErrViewerEvicted", err)
	}
	if _, _, err := slow.Wait(context.Background(), 0); !errors.Is(err, ErrViewerEvicted) {
		t.Fatalf("slow.Wait err = %v, want ErrViewerEvicted", err)
	}
	if live.Evicted() {
		t.Fatal("polling viewer must not be evicted")
	}

	s.mu.Lock()
	viewers, trackedN := s.viewers, len(s.tracked)
	s.mu.Unlock()
	// live + legacy remain; the evicted slot was released.
	if viewers != 2 || trackedN != 1 {
		t.Fatalf("viewers = %d tracked = %d, want 2 and 1", viewers, trackedN)
	}

	// Close after eviction is a no-op; double Close of the live viewer
	// releases exactly one slot.
	slow.Close()
	live.Close()
	live.Close()
	s.mu.Lock()
	viewers = s.viewers
	s.mu.Unlock()
	if viewers != 1 {
		t.Fatalf("viewers after closes = %d, want 1 (legacy only)", viewers)
	}

	snap := m.Telemetry().Snapshot()
	if snap.ViewersAttached != 2 || snap.ViewersEvicted != 1 || snap.ViewersDetached != 1 {
		t.Fatalf("viewer counters wrong: %+v", snap)
	}
}

// TestEvictionWakesParkedWaiter parks a tracked viewer in Wait, then
// produces past the lag threshold: the publish broadcast must wake the
// waiter and it must return ErrViewerEvicted rather than sleep forever.
func TestEvictionWakesParkedWaiter(t *testing.T) {
	_, s := evictionSession(t, 1)

	v := s.AttachViewer()
	s.produce(telemetry.CauseTick)
	if _, _, err := v.Poll(); err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		// Wait for a frame far in the future so only eviction can end it.
		_, _, err := v.Wait(context.Background(), 1<<60)
		errc <- err
	}()
	// Let the waiter park, then blow past the lag threshold. Its delivered
	// mark stays at frame 1, so frame 3 evicts it (lag 2 > 1).
	time.Sleep(10 * time.Millisecond) //ricsa:wallclock waits for goroutine scheduling (the waiter parking), not clock time
	s.produce(telemetry.CauseTick)
	s.produce(telemetry.CauseTick)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrViewerEvicted) {
			t.Fatalf("parked Wait err = %v, want ErrViewerEvicted", err)
		}
	case <-time.After(10 * time.Second): //ricsa:wallclock bounded failsafe so a missed eviction fails instead of hanging
		t.Fatal("parked waiter not woken by eviction")
	}
}

// TestFrameTelemetryRecorded checks produce feeds the collector: frame
// counters advance with the sequence and stage sums are populated for
// rendered frames.
func TestFrameTelemetryRecorded(t *testing.T) {
	m, s := evictionSession(t, 0)

	v := s.AttachViewer()
	defer v.Close()
	s.produce(telemetry.CauseTick) // rendered (viewer attached)
	v.Close()
	s.produce(telemetry.CauseTick) // idle frame (lazy rendering skips pixels)

	snap := m.Telemetry().Snapshot()
	if snap.FramesProduced != 2 || snap.FramesRendered != 1 {
		t.Fatalf("frame counters = %+v, want produced 2 rendered 1", snap)
	}
	tel := m.Telemetry()
	if tel.StageSimNS.Load() <= 0 {
		t.Fatal("sim stage time not recorded")
	}
	if tel.StageRenderNS.Load() <= 0 || tel.StageEncodeNS.Load() <= 0 {
		t.Fatal("render/encode stage time not recorded for the rendered frame")
	}
	if tel.StageProduceNS.Load() < tel.StageSimNS.Load() {
		t.Fatal("produce time must envelope sim time")
	}
}
