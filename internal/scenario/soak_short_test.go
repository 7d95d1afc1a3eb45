package scenario

import (
	"fmt"
	"time"

	"ricsa/internal/netsim"
	"ricsa/internal/steering"
)

// LoadSoakShort is the CI-sized soak: the same invariants as LoadSoak at a
// tenth of the population, small enough for `go test -short -race`. Not in
// All(); the suite substitutes it for load-soak under -short.
func LoadSoakShort() Scenario {
	var events []Event
	req := sessionRequest(netsim.GaTech, netsim.ORNL)
	for i := 1; i <= 30; i++ {
		events = append(events, TryStartSession(time.Duration(i-1)*10*time.Millisecond,
			fmt.Sprintf("s%d", i), req))
	}
	for i := 1; i <= 8; i++ {
		events = append(events, TrackViewers(1500*time.Millisecond, fmt.Sprintf("s%d", i), 10))
	}
	polled := soakAliases(1, 4)
	for at := 2 * time.Second; at <= 7*time.Second; at += time.Second {
		events = append(events, PollViewers(at, polled...))
	}
	events = append(events,
		StopSession(5*time.Second, "s19"),
		StopSession(5*time.Second, "s20"),
	)
	for i := 31; i <= 34; i++ {
		events = append(events, TryStartSession(5500*time.Millisecond+time.Duration(i-31)*10*time.Millisecond,
			fmt.Sprintf("s%d", i), req))
	}
	events = append(events,
		CloseViewers(6*time.Second, "s1", 3),
		PollViewers(7500*time.Millisecond, soakAliases(5, 8)...),
	)
	return Scenario{
		Name:         "load-soak-short",
		Description:  "CI-sized load-soak: 30 admissions vs a 20-session budget, 80 viewers vs eviction",
		Seed:         42,
		Duration:     8 * time.Second,
		CountExact:   true,
		SampleEvery:  2 * time.Second,
		FramePeriod:  200 * time.Millisecond,
		MaxSessions:  50,
		FrameBudget:  2.0,
		FrameCost:    20 * time.Millisecond,
		MaxViewerLag: 8,
		Events:       events,
		Verify: soakVerify(soakWant{
			admitted:         22, // 20 wave-1 + 2 refunded slots
			rejectedOverload: 12, // 10 wave-1 + 2 wave-2
			destroyed:        2,
			attached:         80,
			evicted:          40, // s5..s8 x 10
			detached:         3,
			minFrames:        300,
		}),
	}
}

// Mgr exposes the live service under test.
func (e *Engine) Mgr() *steering.SessionManager { return e.mgr }
