package webui

// The long-poll protocol tests. Every one drives a Hub whose manager paces
// on an injected clock.Virtual: a session produces its first frame at
// creation and then exactly one frame per Advance(framePeriod), so "a frame
// is published while a poll is parked" is a scripted event, not a sleep.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ricsa/internal/clock"
	"ricsa/internal/steering"
)

const virtualPeriod = 100 * time.Millisecond

// framePeriod is the session's effective cadence: the base period plus the
// installed mapping's predicted delivery delay, which the loop charges on
// top of every frame. With no prober the graph — and so the mapping — is
// static, so the cadence is too.
func framePeriod(s *steering.ManagedSession) time.Duration {
	return virtualPeriod + time.Duration(s.Tree().Delay*float64(time.Second))
}

// virtualHub serves a Hub over a virtual-clock manager (no prober, so every
// armed clock waiter is a session frame loop).
func virtualHub(t *testing.T) (*Hub, *steering.SessionManager, *clock.Virtual, string) {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	mgr := steering.NewSessionManager(steering.ManagerConfig{MaxSessions: 4, Seed: 42, Clock: clk})
	h := NewHub(mgr)
	srv := httptest.NewServer(h.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	return h, mgr, clk, srv.URL
}

// virtualSession starts a small session and returns once its first frame is
// published and its loop is parked on the clock (armed counts the sessions
// started so far on this manager).
func virtualSession(t *testing.T, mgr *steering.SessionManager, clk *clock.Virtual, req steering.Request, armed int) *steering.ManagedSession {
	t.Helper()
	req.NX, req.NY, req.NZ = 16, 8, 8
	req.StepsPerFrame = 1
	s, err := mgr.CreateTuned(req, virtualPeriod, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	clk.AwaitArmed(armed)
	return s
}

// awaitViewers blocks until exactly n long-polls are attached to the
// session. A handler's attach or detach is an OS-scheduler fact the virtual
// clock cannot see, so this poll runs on the wall clock by nature.
func awaitViewers(t *testing.T, s *steering.ManagedSession, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second) //ricsa:wallclock bounds a wait on real net/http handler goroutines
	for s.Viewers() != n {
		if time.Now().After(deadline) { //ricsa:wallclock failsafe for the handler-attach wait
			t.Fatalf("%d long-polls attached, want %d", s.Viewers(), n)
		}
		time.Sleep(time.Millisecond) //ricsa:wallclock backoff while real handler goroutines attach
	}
}

func frameURL(base string, s *steering.ManagedSession, since uint64) string {
	return fmt.Sprintf("%s/sessions/%s/api/frame?since=%d", base, s.ID, since)
}

func TestIndexServesHTML(t *testing.T) {
	_, mgr, clk, url := virtualHub(t)
	s := virtualSession(t, mgr, clk, steering.DefaultRequest(), 1)
	resp, err := http.Get(url + "/sessions/" + s.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "fetch('/sessions/"+s.ID+"/api/frame?since=") {
		t.Fatal("page lacks the asynchronous long-polling client")
	}
}

func TestUnknownPathIs404(t *testing.T) {
	_, _, _, url := virtualHub(t)
	resp, err := http.Get(url + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestFrameLongPollDeliversWhenPublished(t *testing.T) {
	_, mgr, clk, url := virtualHub(t)
	s := virtualSession(t, mgr, clk, steering.DefaultRequest(), 1)

	type reply struct {
		status int
		seq    string
		body   []byte
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		// Frame 1 exists; the poll asks for anything newer and parks.
		resp, err := http.Get(frameURL(url, s, 1))
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		got <- reply{status: resp.StatusCode, seq: resp.Header.Get("X-Frame-Seq"), body: body}
	}()
	awaitViewers(t, s, 1)
	select {
	case r := <-got:
		t.Fatalf("poll returned before a frame was published: %+v", r)
	default:
	}
	clk.Advance(framePeriod(s)) // publishes frame 2, waking the parked poll
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != 200 || r.seq != "2" {
		t.Fatalf("status %d seq %q, want 200 and seq 2", r.status, r.seq)
	}
	if len(r.body) < 4 || string(r.body[1:4]) != "PNG" {
		t.Fatal("frame is not PNG")
	}
}

func TestFramePollTimesOutWith204(t *testing.T) {
	h, mgr, clk, url := virtualHub(t)
	h.PollTimeout = 50 * time.Millisecond
	s := virtualSession(t, mgr, clk, steering.DefaultRequest(), 1)
	// The clock never advances, so no frame past 1 can appear.
	resp, err := http.Get(frameURL(url, s, 1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status %d, want 204", resp.StatusCode)
	}
}

func TestMultipleClientsReceiveSameFrame(t *testing.T) {
	_, mgr, clk, url := virtualHub(t)
	s := virtualSession(t, mgr, clk, steering.DefaultRequest(), 1)

	const clients = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(frameURL(url, s, 1))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if seq := resp.Header.Get("X-Frame-Seq"); resp.StatusCode != 200 || seq != "2" {
				errs <- fmt.Errorf("client %d: status %d seq %q", i, resp.StatusCode, seq)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	awaitViewers(t, s, clients)
	clk.Advance(framePeriod(s))
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Renders() != 1 {
		t.Fatalf("%d renders for one published frame, want 1", s.Renders())
	}
	for i := 1; i < clients; i++ {
		if len(bodies[i]) == 0 || !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d received different bytes than client 0", i)
		}
	}
}

// TestSteerEndpoint posts a bow-shock wind steer over HTTP and proves it
// reached the simulator: two sessions start identical (same request, same
// deterministic solver), only one is steered, and only a simulator
// parameter differs — so diverging frames can have no other cause.
func TestSteerEndpoint(t *testing.T) {
	_, mgr, clk, url := virtualHub(t)
	req := steering.DefaultRequest()
	req.Simulator, req.Variable, req.Method = "bowshock", "pressure", "raycast"
	steered := virtualSession(t, mgr, clk, req, 1)
	control := virtualSession(t, mgr, clk, req, 2)
	for _, s := range []*steering.ManagedSession{steered, control} {
		defer s.AttachViewer().Close() // eager rendering on both
	}
	latest := func(s *steering.ManagedSession) []byte {
		t.Helper()
		resp, err := http.Get(frameURL(url, s, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("frame status %d: %s", resp.StatusCode, body)
		}
		return body
	}

	clk.Advance(2 * framePeriod(control))
	if !bytes.Equal(latest(steered), latest(control)) {
		t.Fatal("identical sessions diverged before any steer")
	}
	body, _ := json.Marshal(map[string]float64{"wind_velocity": 9})
	resp, err := http.Post(url+"/sessions/"+steered.ID+"/api/steer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("steer status %d", resp.StatusCode)
	}
	clk.Advance(10 * framePeriod(control))
	if bytes.Equal(latest(steered), latest(control)) {
		t.Fatal("wind_velocity steer over HTTP never reached the simulator: frames still identical")
	}
}

// TestStatusEndpoint reads the frame sequence over HTTP while the injected
// clock paces the loop: exactly one frame per elapsed period, none early,
// and a destroyed session leaves no timer armed.
func TestStatusEndpoint(t *testing.T) {
	_, mgr, clk, url := virtualHub(t)
	s := virtualSession(t, mgr, clk, steering.DefaultRequest(), 1)
	frameSeq := func() float64 {
		t.Helper()
		status := getStatus(t, url, s)
		if status["id"] != s.ID || status["simulator"] != "sod" {
			t.Fatalf("status %v", status)
		}
		return status["frame_seq"].(float64)
	}
	if got := frameSeq(); got != 1 {
		t.Fatalf("frame_seq after start = %v, want 1", got)
	}
	// Advance returns only after the loop re-armed its timer, so each whole
	// period is exactly one more frame.
	for want := 2.0; want <= 4; want++ {
		clk.Advance(framePeriod(s))
		if got := frameSeq(); got != want {
			t.Fatalf("frame_seq after advance = %v, want %v", got, want)
		}
	}
	// A partial period produces nothing: no hidden wall-clock pacing.
	clk.Advance(framePeriod(s) / 2)
	if got := frameSeq(); got != 4 {
		t.Fatalf("frame_seq after partial advance = %v, want 4", got)
	}
	// Destroy must disarm the loop's timer — a leaked waiter would wedge
	// the next coordinator rendezvous.
	if err := mgr.Destroy(s.ID); err != nil {
		t.Fatal(err)
	}
	clk.AwaitArmed(0)
}

// getStatus fetches a session's status JSON over HTTP.
func getStatus(t *testing.T, url string, s *steering.ManagedSession) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/sessions/" + s.ID + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status
}

// TestCollabSharedPhysicsSteering: viewers of one session share one
// simulation, so a physics steer posted by any client is what every other
// client's status reports once it lands at the next step boundary.
func TestCollabSharedPhysicsSteering(t *testing.T) {
	_, mgr, clk, url := virtualHub(t)
	s := virtualSession(t, mgr, clk, steering.DefaultRequest(), 1)
	body, _ := json.Marshal(map[string]float64{"left_pressure": 7})
	resp, err := http.Post(url+"/sessions/"+s.ID+"/api/steer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("steer status %d", resp.StatusCode)
	}
	if got := getStatus(t, url, s)["left_pressure"]; got == 7.0 {
		t.Fatal("steer applied before a step boundary")
	}
	clk.Advance(framePeriod(s))
	if got := getStatus(t, url, s)["left_pressure"]; got != 7.0 {
		t.Fatalf("another client's status reads left_pressure %v, want 7", got)
	}
}

// TestCollabViewerCountInStatus: every parked long-poll is one attached
// viewer in the session's status, and none once they are served.
func TestCollabViewerCountInStatus(t *testing.T) {
	_, mgr, clk, url := virtualHub(t)
	s := virtualSession(t, mgr, clk, steering.DefaultRequest(), 1)
	const clients = 3
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := http.Get(frameURL(url, s, 1)); err == nil {
				resp.Body.Close()
			}
		}()
	}
	awaitViewers(t, s, clients)
	if got := getStatus(t, url, s)["viewers"]; got != float64(clients) {
		t.Fatalf("status viewers %v with %d parked polls", got, clients)
	}
	clk.Advance(framePeriod(s))
	wg.Wait()
	// The handlers detach as they return, just after the clients see EOF.
	awaitViewers(t, s, 0)
}
