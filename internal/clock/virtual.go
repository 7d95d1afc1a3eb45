package clock

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Virtual is a deterministic, manually advanced Clock. Time moves only when
// a coordinator calls AdvanceTo; armed timers fire strictly in (deadline,
// arm-order) order, one at a time. After each fire the clock waits for the
// woken goroutine to acknowledge — its next Reset (periodic loops re-arming)
// or Stop (loops shutting down) on the fired timer —
// before firing the next timer, so exactly one control goroutine runs at any
// moment and a fixed set of control loops replays bit-identically.
//
// Population changes (a new control goroutine arming its first timer, a
// stopped one disarming) must happen between AdvanceTo calls, bracketed by
// AwaitArmed so the coordinator knows the new population is parked.
type Virtual struct {
	mu   sync.Mutex
	cond *sync.Cond
	now  time.Time
	seq  uint64
	// armed holds every currently armed timer.
	armed map[*vtimer]struct{}
	// inflight is the timer whose fire has been delivered but not yet
	// acknowledged by the consumer's Reset/Stop. The clock is quiescent
	// when inflight is nil.
	inflight *vtimer

	// watchdog is the wall-time bound the rendezvous waits before declaring
	// the run wedged (a control goroutine died without acking, or AwaitArmed
	// was given a count nobody reaches). Zero selects a minute.
	watchdog time.Duration
}

// NewVirtual returns a Virtual clock reading start.
func NewVirtual(start time.Time) *Virtual {
	v := &Virtual{now: start, armed: make(map[*vtimer]struct{})}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since returns virtual time elapsed since t.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Armed reports the number of armed timers.
//
//ricsa:allow unreachable test support: cm's TestBackgroundProberTicks checks that Stop disarms the prober's timer
func (v *Virtual) Armed() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.armed)
}

// NextDeadline reports the earliest armed timer's deadline; ok is false
// when no timer is armed. A coordinator can wait on it to see a control
// goroutine re-arm its timer outside a fire — which AwaitArmed, counting
// timers, cannot tell from the old arm.
//
//ricsa:allow unreachable test support: steering's TestViewSteersRateLimited waits on the loop's re-arm for a deferred view frame
func (v *Virtual) NextDeadline() (when time.Time, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t := v.earliestLocked(); t != nil {
		return t.when, true
	}
	return time.Time{}, false
}

// SetWatchdog overrides the wall-clock rendezvous bound (0 restores the
// default minute).
func (v *Virtual) SetWatchdog(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.watchdog = d
}

// NewTimer arms a timer firing at now+d.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &vtimer{v: v, ch: make(chan time.Time, 1)}
	v.armLocked(t, d)
	return t
}

func (v *Virtual) armLocked(t *vtimer, d time.Duration) {
	if d < 0 {
		d = 0
	}
	v.seq++
	t.when = v.now.Add(d)
	t.order = v.seq
	v.armed[t] = struct{}{}
	v.cond.Broadcast()
}

// ackLocked records the consumer's Reset/Stop of a fired timer.
func (v *Virtual) ackLocked(t *vtimer) {
	if v.inflight == t {
		v.inflight = nil
		v.cond.Broadcast()
	}
}

// earliestLocked returns the armed timer with the smallest (when, order).
func (v *Virtual) earliestLocked() *vtimer {
	var best *vtimer
	for t := range v.armed {
		if best == nil || t.when.Before(best.when) ||
			(t.when.Equal(best.when) && t.order < best.order) {
			best = t
		}
	}
	return best
}

// AwaitArmed blocks until exactly waiters timers are armed and no fire is
// awaiting acknowledgement — i.e. the expected population of control
// goroutines is parked on the clock. Coordinators call it after starting or
// stopping control goroutines, before the next AdvanceTo.
func (v *Virtual) AwaitArmed(waiters int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.waitLocked(func() bool { return len(v.armed) == waiters && v.inflight == nil },
		func() string { return fmt.Sprintf("%d timers armed, coordinator expects %d", len(v.armed), waiters) })
}

// waitLocked blocks until ok holds, panicking with diagnostics if the
// wall-clock watchdog expires first (a control goroutine died or the
// coordinator's expectation is wrong — without the watchdog, a bug here is
// an unexplained test hang).
func (v *Virtual) waitLocked(ok func() bool, why func() string) {
	if ok() {
		return
	}
	bound := v.watchdog
	if bound <= 0 {
		bound = time.Minute
	}
	wedged := false
	guard := time.AfterFunc(bound, func() {
		v.mu.Lock()
		wedged = true
		v.cond.Broadcast()
		v.mu.Unlock()
	})
	defer guard.Stop()
	for !ok() && !wedged {
		v.cond.Wait()
	}
	if wedged {
		panic(fmt.Sprintf("clock: virtual run wedged: %s (deadlocked control goroutine or wrong expectation); armed deadlines: %v",
			why(), v.deadlinesLocked()))
	}
}

func (v *Virtual) deadlinesLocked() []string {
	out := make([]string, 0, len(v.armed))
	for t := range v.armed {
		out = append(out, t.when.Format("15:04:05.000"))
	}
	sort.Strings(out)
	return out
}

// AdvanceTo advances virtual time to target, firing every timer due on the
// way in deterministic (deadline, arm-order) order, one at a time with an
// acknowledgement rendezvous between fires. Firing stops at the first
// deadline after target; the clock then reads exactly target.
func (v *Virtual) AdvanceTo(target time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		v.waitLocked(func() bool { return v.inflight == nil },
			func() string { return "a fired timer was never acknowledged by Reset or Stop" })
		next := v.earliestLocked()
		if next == nil || next.when.After(target) {
			if target.After(v.now) {
				v.now = target
			}
			return
		}
		if next.when.After(v.now) {
			v.now = next.when
		}
		delete(v.armed, next)
		v.inflight = next
		// Buffered: the consumer may be between select iterations.
		next.ch <- v.now
	}
}

// Advance is AdvanceTo(Now()+d).
//
//ricsa:allow unreachable test support: the virtual-clock tests of cm (TestBackgroundProberTicks), steering (TestPredictedDelayChargedToPacing) and webui (TestSteerEndpoint, TestStatusEndpoint and four more)
func (v *Virtual) Advance(d time.Duration) {
	v.AdvanceTo(v.Now().Add(d))
}

// vtimer is a Virtual-clock timer.
type vtimer struct {
	v     *Virtual
	ch    chan time.Time
	when  time.Time
	order uint64
}

func (t *vtimer) C() <-chan time.Time { return t.ch }

func (t *vtimer) Reset(d time.Duration) bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	t.v.ackLocked(t)
	_, was := t.v.armed[t]
	if was {
		delete(t.v.armed, t)
	}
	// Drop a stale fire no one consumed, mirroring time.Timer's
	// drain-before-Reset expectation closely enough for our loops.
	select {
	case <-t.ch:
	default:
	}
	t.v.armLocked(t, d)
	return was
}

func (t *vtimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	t.v.ackLocked(t)
	_, was := t.v.armed[t]
	if was {
		delete(t.v.armed, t)
		t.v.cond.Broadcast()
	}
	return was
}
