package steering_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ricsa/internal/steering"
)

// ExampleSessionManager walks the session API of the multi-session
// service: create a live session, steer its physics, watch the limit
// enforcement, and shut the manager down gracefully.
func ExampleSessionManager() {
	mgr := steering.NewSessionManager(steering.ManagerConfig{
		MaxSessions: 2,
		Seed:        42,
	})

	req := steering.DefaultRequest()
	req.NX, req.NY, req.NZ = 16, 8, 8

	s, err := mgr.CreateTuned(req, 5*time.Millisecond, 64, 64)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("created %s (%d live)\n", s.ID, mgr.Len())

	// Steering: physics keys reach the solver at its next step boundary.
	if err := s.Steer(map[string]float64{"left_pressure": 8}); err != nil {
		fmt.Println(err)
	}
	// Unknown keys are rejected.
	if err := s.Steer(map[string]float64{"warp_factor": 9}); err != nil {
		fmt.Println(err)
	}

	// The manager enforces its capacity.
	mgr.CreateTuned(req, 0, 0, 0)
	if _, err := mgr.CreateTuned(req, 0, 0, 0); errors.Is(err, steering.ErrSessionLimit) {
		fmt.Println("third session refused: at capacity")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mgr.Shutdown(ctx)
	fmt.Printf("after shutdown: %d live\n", mgr.Len())
	// Output:
	// created s1 (1 live)
	// steering: unknown steering parameter "warp_factor"
	// third session refused: at capacity
	// after shutdown: 0 live
}
