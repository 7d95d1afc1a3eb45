package clock

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestWallClockBasics(t *testing.T) {
	c := Wall()
	start := c.Now()
	tm := c.NewTimer(time.Millisecond)
	<-tm.C()
	if c.Since(start) <= 0 {
		t.Fatal("wall clock did not advance across a timer fire")
	}
	if tm.Stop() {
		t.Fatal("Stop returned true after fire")
	}
	tm.Reset(time.Hour)
	if !tm.Stop() {
		t.Fatal("Stop returned false on an armed timer")
	}
}

func TestVirtualFiresInDeadlineOrder(t *testing.T) {
	epoch := time.Unix(0, 0)
	v := NewVirtual(epoch)
	// order mutates only inside fires; the rendezvous serializes consumers
	// against the coordinator through the clock mutex, so no extra lock.
	var order []int
	stop := make(chan struct{})
	var exited []chan struct{}
	spawn := func(id int, d time.Duration) {
		tm := v.NewTimer(d)
		ex := make(chan struct{})
		exited = append(exited, ex)
		go func() {
			defer close(ex)
			defer tm.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tm.C():
					order = append(order, id)
					tm.Reset(time.Hour) // park: stay a waiter, never refire
				}
			}
		}()
	}
	// Same deadline for 2 and 3: arm order breaks the tie.
	spawn(1, 10*time.Millisecond)
	spawn(2, 30*time.Millisecond)
	spawn(3, 30*time.Millisecond)

	v.AdvanceTo(epoch.Add(5 * time.Millisecond))
	v.AwaitArmed(3)
	if len(order) != 0 {
		t.Fatalf("fired early: %v", order)
	}
	v.AdvanceTo(epoch.Add(time.Second))
	v.AwaitArmed(3)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order %v, want [1 2 3]", order)
	}
	if got := v.Now(); !got.Equal(epoch.Add(time.Second)) {
		t.Fatalf("clock at %v, want %v", got, epoch.Add(time.Second))
	}
	close(stop)
	for _, ex := range exited {
		<-ex
	}
}

func TestVirtualPeriodicLoopRendezvous(t *testing.T) {
	epoch := time.Unix(0, 0)
	v := NewVirtual(epoch)
	var ticks atomic.Int64
	stop := make(chan struct{})
	exited := make(chan struct{})
	tm := v.NewTimer(100 * time.Millisecond)
	go func() {
		defer close(exited)
		defer tm.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tm.C():
				ticks.Add(1)
				tm.Reset(100 * time.Millisecond)
			}
		}
	}()
	v.AdvanceTo(epoch.Add(time.Second))
	if got := ticks.Load(); got != 10 {
		t.Fatalf("ticks %d after 1s at 100ms cadence, want 10", got)
	}
	// A fractional advance does not over-fire.
	v.Advance(150 * time.Millisecond)
	if got := ticks.Load(); got != 11 {
		t.Fatalf("ticks %d, want 11", got)
	}
	close(stop)
	<-exited
	if v.Armed() != 0 {
		t.Fatalf("armed %d after loop exit, want 0", v.Armed())
	}
}

func TestVirtualWatchdogPanicsOnWedge(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	v.SetWatchdog(50 * time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic from a wedged rendezvous")
		}
	}()
	v.AwaitArmed(1) // nobody will ever arm
}

// TestVirtualNextDeadline checks NextDeadline reports the earliest armed
// deadline, follows a Reset made outside a fire, and reports none once
// every timer is stopped.
func TestVirtualNextDeadline(t *testing.T) {
	epoch := time.Unix(0, 0)
	v := NewVirtual(epoch)
	if _, ok := v.NextDeadline(); ok {
		t.Fatal("deadline reported with no timer armed")
	}
	a := v.NewTimer(30 * time.Millisecond)
	b := v.NewTimer(20 * time.Millisecond)
	if when, ok := v.NextDeadline(); !ok || !when.Equal(epoch.Add(20*time.Millisecond)) {
		t.Fatalf("next deadline %v (ok %v), want +20ms", when, ok)
	}
	a.Reset(10 * time.Millisecond)
	if when, _ := v.NextDeadline(); !when.Equal(epoch.Add(10 * time.Millisecond)) {
		t.Fatalf("next deadline %v after a re-arm, want +10ms", when)
	}
	a.Stop()
	b.Stop()
	if _, ok := v.NextDeadline(); ok {
		t.Fatal("deadline reported after every timer stopped")
	}
}
