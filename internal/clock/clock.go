// Package clock abstracts control-loop timing so the live stack — the
// Central Manager's background Prober and ManagedSession frame pacing — can
// run either on the operating system's clock (production) or on a
// deterministic virtual clock (the scenario engine and de-flaked tests).
//
// The contract consumers must follow for virtual runs to be deterministic:
//
//   - A control goroutine owns exactly one Timer. It blocks in a select on
//     the timer's channel, does its work when the timer fires, re-arms with
//     Reset as the last clock interaction of the iteration, and blocks
//     again. No other clock calls may happen between Reset and the next
//     block (Now/Since are fine — they don't register waiters).
//   - Tickers are deliberately absent: an auto-rearming ticker hides the
//     "work finished" edge the virtual clock's rendezvous needs. Use a
//     Timer and Reset it after each tick.
package clock

import "time"

// Clock is the timing dependency of a control loop.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the time elapsed on this clock since t.
	Since(t time.Time) time.Duration
	// NewTimer returns an armed Timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// Sleep blocks the calling goroutine for d of this clock's time.
	Sleep(d time.Duration)
}

// Timer is a resettable one-shot timer bound to a Clock.
type Timer interface {
	// C is the firing channel. It delivers at most one value per arm.
	C() <-chan time.Time
	// Reset re-arms the timer to fire after d, returning true if it was
	// still armed. Callers must have drained C (or observed the fire)
	// first, per the time.Timer contract.
	Reset(d time.Duration) bool
	// Stop disarms the timer, returning true if it was still armed.
	Stop() bool
}

// Wall returns the process-wide wall clock. It is the default everywhere a
// Clock is optional: production binaries never need to name it.
func Wall() Clock { return wallClock{} }

type wallClock struct{}

func (wallClock) Now() time.Time                  { return time.Now() }
func (wallClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (wallClock) Sleep(d time.Duration)           { time.Sleep(d) }
func (wallClock) NewTimer(d time.Duration) Timer  { return wallTimer{time.NewTimer(d)} }

type wallTimer struct{ t *time.Timer }

func (w wallTimer) C() <-chan time.Time        { return w.t.C }
func (w wallTimer) Reset(d time.Duration) bool { return w.t.Reset(d) }
func (w wallTimer) Stop() bool                 { return w.t.Stop() }
