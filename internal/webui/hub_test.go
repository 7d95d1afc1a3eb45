package webui

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ricsa/internal/clock"
	"ricsa/internal/steering"
)

func testHub(t *testing.T, maxSessions int) (*Hub, *steering.SessionManager) {
	t.Helper()
	mgr := steering.NewSessionManager(steering.ManagerConfig{
		MaxSessions:     maxSessions,
		ReoptimizeEvery: 2,
		Seed:            42,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	return NewHub(mgr), mgr
}

// createSession posts a small/fast session and returns its id.
func createSession(t *testing.T, url string) string {
	t.Helper()
	body, _ := json.Marshal(CreateRequest{
		Simulator: "sod", NX: 16, NY: 8, NZ: 8,
		StepsPerFrame: 1, FramePeriodMS: 3,
	})
	resp, err := http.Post(url+"/api/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("create returned empty id")
	}
	return out.ID
}

func TestHubSessionLifecycleOverHTTP(t *testing.T) {
	h, mgr := testHub(t, 4)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	id := createSession(t, srv.URL)
	if mgr.Len() != 1 {
		t.Fatalf("manager has %d sessions, want 1", mgr.Len())
	}

	// Listing includes it.
	resp, err := http.Get(srv.URL + "/api/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]any
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0]["id"] != id {
		t.Fatalf("listing %v, want session %s", list, id)
	}

	// The viewer page targets the session-scoped API.
	resp, err = http.Get(srv.URL + "/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "/sessions/"+id+"/api/steer") {
		t.Fatalf("viewer page does not target /sessions/%s/api/steer", id)
	}

	// Frames are served under the session route.
	resp, err = http.Get(srv.URL + "/sessions/" + id + "/api/frame?since=0")
	if err != nil {
		t.Fatal(err)
	}
	png, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "image/png" {
		t.Fatalf("frame status %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if len(png) < 4 || png[1] != 'P' || png[2] != 'N' || png[3] != 'G' {
		t.Fatal("frame is not PNG")
	}

	// Steering lands in this session.
	body, _ := json.Marshal(map[string]float64{"left_pressure": 7})
	resp, err = http.Post(srv.URL+"/sessions/"+id+"/api/steer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("steer status %d", resp.StatusCode)
	}

	// Status reflects the session.
	resp, err = http.Get(srv.URL + "/sessions/" + id + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	var status map[string]any
	json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if status["id"] != id || status["simulator"] != "sod" {
		t.Fatalf("status %v", status)
	}

	// Destroy frees the slot; the routes then 404.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/sessions/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("destroy status %d", resp.StatusCode)
	}
	if mgr.Len() != 0 {
		t.Fatal("session not destroyed")
	}
	resp, _ = http.Get(srv.URL + "/sessions/" + id + "/api/status")
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("destroyed session status %d, want 404", resp.StatusCode)
	}
}

// TestHubViewerMultiplexing attaches many concurrent viewers to one session
// and checks that all of them receive frames while status reports the
// fan-out.
func TestHubViewerMultiplexing(t *testing.T) {
	h, _ := testHub(t, 1)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	id := createSession(t, srv.URL)

	const viewers = 6
	var wg sync.WaitGroup
	errs := make(chan error, viewers)
	for i := 0; i < viewers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := 0; f < 3; f++ {
				resp, err := http.Get(srv.URL + "/sessions/" + id + "/api/frame?since=0")
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("viewer frame status %d", resp.StatusCode)
					return
				}
				if len(body) < 4 || body[1] != 'P' {
					errs <- fmt.Errorf("viewer got non-PNG frame")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestHubViewerCountDuringPoll checks that a blocked long-poll is counted
// as an attached viewer.
func TestHubViewerCountDuringPoll(t *testing.T) {
	h, mgr := testHub(t, 1)
	h.PollTimeout = 500 * time.Millisecond
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	id := createSession(t, srv.URL)

	done := make(chan struct{})
	go func() {
		defer close(done)
		// since far in the future: blocks until the poll timeout.
		resp, err := http.Get(srv.URL + "/sessions/" + id + "/api/frame?since=1099511627776")
		if err == nil {
			resp.Body.Close()
		}
	}()

	s, _ := mgr.Get(id)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Status()["viewers"].(int) >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.Status()["viewers"].(int); got < 1 {
		t.Fatalf("viewers %d during long-poll, want >= 1", got)
	}
	<-done
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Status()["viewers"].(int) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("viewers %d after poll ended, want 0", s.Status()["viewers"])
}

func TestHubSessionLimitOverHTTP(t *testing.T) {
	h, _ := testHub(t, 1)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	createSession(t, srv.URL)

	body, _ := json.Marshal(CreateRequest{Simulator: "sod", NX: 16, NY: 8, NZ: 8})
	resp, err := http.Post(srv.URL+"/api/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit create status %d, want 429", resp.StatusCode)
	}
}

func TestHubRejectsBadInput(t *testing.T) {
	h, _ := testHub(t, 2)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	// Unknown simulator.
	body, _ := json.Marshal(CreateRequest{Simulator: "warp-drive"})
	resp, _ := http.Post(srv.URL+"/api/sessions", "application/json", bytes.NewReader(body))
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad simulator status %d, want 400", resp.StatusCode)
	}
	// Unknown visualization method must be rejected at creation, not
	// produce a session that can never render a frame.
	body, _ = json.Marshal(CreateRequest{Simulator: "sod", Method: "volume"})
	resp, _ = http.Post(srv.URL+"/api/sessions", "application/json", bytes.NewReader(body))
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad method status %d, want 400", resp.StatusCode)
	}
	// Malformed JSON.
	resp, _ = http.Post(srv.URL+"/api/sessions", "application/json", strings.NewReader("{"))
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad JSON status %d, want 400", resp.StatusCode)
	}
	// Unknown session everywhere.
	for _, path := range []string{"/sessions/nope", "/sessions/nope/api/status", "/sessions/nope/api/frame"} {
		resp, _ = http.Get(srv.URL + path)
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("GET %s status %d, want 404", path, resp.StatusCode)
		}
	}
	// Bad since on a live session.
	id := createSession(t, srv.URL)
	resp, _ = http.Get(srv.URL + "/sessions/" + id + "/api/frame?since=banana")
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad since status %d, want 400", resp.StatusCode)
	}
	// Unknown steering key.
	body, _ = json.Marshal(map[string]float64{"bogus": 1})
	resp, _ = http.Post(srv.URL+"/sessions/"+id+"/api/steer", "application/json", bytes.NewReader(body))
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad steer key status %d, want 400", resp.StatusCode)
	}
}

func TestHubIndexAndCacheEndpoints(t *testing.T) {
	h, _ := testHub(t, 1)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(page), "/api/sessions") {
		t.Fatalf("index status %d or missing session API reference", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/api/cache")
	if err != nil {
		t.Fatal(err)
	}
	var cache map[string]any
	json.NewDecoder(resp.Body).Decode(&cache)
	resp.Body.Close()
	for _, k := range []string{"hits", "misses", "entries"} {
		if _, ok := cache[k]; !ok {
			t.Fatalf("cache stats missing %q: %v", k, cache)
		}
	}
}

// TestHubCMEndpoint checks the control-plane route: probe epoch, per-edge
// estimates with staleness, and adaptation counters.
func TestHubCMEndpoint(t *testing.T) {
	h, mgr := testHub(t, 1)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/cm")
	if err != nil {
		t.Fatal(err)
	}
	var cm struct {
		ProbeEpoch  uint64 `json:"probe_epoch"`
		GraphRev    uint64 `json:"graph_rev"`
		Adaptations uint64 `json:"adaptations"`
		Edges       []struct {
			From       string  `json:"from"`
			To         string  `json:"to"`
			Bandwidth  float64 `json:"bandwidth_bps"`
			StaleTicks uint64  `json:"stale_ticks"`
		} `json:"edges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cm status %d", resp.StatusCode)
	}
	if cm.ProbeEpoch == 0 || cm.GraphRev == 0 {
		t.Fatalf("cm state has no measurement epoch: %+v", cm)
	}
	if len(cm.Edges) == 0 {
		t.Fatal("cm state lists no edges")
	}
	for _, e := range cm.Edges {
		if e.From == "" || e.To == "" || e.Bandwidth <= 0 {
			t.Fatalf("implausible edge %+v", e)
		}
	}

	// A probe tick advances the epoch observably.
	before := cm.ProbeEpoch
	mgr.CM().ProbeTick()
	resp, err = http.Get(srv.URL + "/api/cm")
	if err != nil {
		t.Fatal(err)
	}
	var cm2 struct {
		ProbeEpoch uint64 `json:"probe_epoch"`
	}
	json.NewDecoder(resp.Body).Decode(&cm2)
	resp.Body.Close()
	if cm2.ProbeEpoch <= before {
		t.Fatalf("probe epoch did not advance: %d -> %d", before, cm2.ProbeEpoch)
	}
}

// TestHubFramesMonotonicAcrossAdaptation long-polls frames over HTTP while
// the session's chosen path collapses and the Adapter swaps the mapping:
// every response must be a 200 PNG with a strictly increasing sequence —
// no 404/410 flap through the reconfiguration.
func TestHubFramesMonotonicAcrossAdaptation(t *testing.T) {
	mgr := steering.NewSessionManager(steering.ManagerConfig{
		MaxSessions:     1,
		ReoptimizeEvery: 1 << 20, // isolate the Adapter
		Seed:            42,
		AdaptTolerance:  0.5,
		AdaptWindow:     2,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	h := NewHub(mgr)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	body, _ := json.Marshal(CreateRequest{
		Simulator: "sod", NX: 64, NY: 32, NZ: 32,
		StepsPerFrame: 1, FramePeriodMS: 3,
	})
	resp, err := http.Post(srv.URL+"/api/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()

	s, ok := mgr.Get(created.ID)
	if !ok {
		t.Fatal("session not registered")
	}
	deadline := time.Now().Add(15 * time.Second)
	for s.Status()["reoptimizations"].(int) < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	path, _ := s.Status()["vrt_path"].([]string)
	if path == nil {
		t.Fatal("no mapping installed")
	}

	// Long-polling viewer: collects frames through the churn.
	stop := make(chan struct{})
	viewerErr := make(chan error, 1)
	go func() {
		var since uint64
		for {
			select {
			case <-stop:
				viewerErr <- nil
				return
			default:
			}
			resp, err := http.Get(fmt.Sprintf("%s/sessions/%s/api/frame?since=%d", srv.URL, created.ID, since))
			if err != nil {
				viewerErr <- err
				return
			}
			png, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusNoContent {
				continue // poll timeout, retry
			}
			if resp.StatusCode != 200 {
				viewerErr <- fmt.Errorf("frame poll status %d mid-churn", resp.StatusCode)
				return
			}
			seq, err := strconv.ParseUint(resp.Header.Get("X-Frame-Seq"), 10, 64)
			if err == nil && seq <= since {
				viewerErr <- fmt.Errorf("non-monotonic frame %d after %d", seq, since)
				return
			}
			if err == nil {
				since = seq
			}
			if len(png) < 4 || png[1] != 'P' {
				viewerErr <- fmt.Errorf("non-PNG frame mid-churn")
				return
			}
		}
	}()

	// Collapse the installed path and register the drift.
	for i := 0; i+1 < len(path); i++ {
		if l := mgr.CM().Network().FindLink(path[i], path[i+1]); l != nil {
			l.AB.SetBandwidth(l.AB.Config().Bandwidth * 0.02)
			l.BA.SetBandwidth(l.BA.Config().Bandwidth * 0.02)
		}
	}
	mgr.CM().MeasureAll()

	deadline = time.Now().Add(15 * time.Second)
	adaptations := func() int { return s.Status()["adaptations"].(int) }
	for adaptations() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if adaptations() < 1 {
		t.Fatal("adapter never forced a reconfiguration")
	}
	// Let the viewer observe at least one post-swap frame.
	seqAtSwap := s.Status()["frame_seq"].(uint64)
	deadline = time.Now().Add(15 * time.Second)
	for s.Status()["frame_seq"].(uint64) <= seqAtSwap && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	if err := <-viewerErr; err != nil {
		t.Fatal(err)
	}
}

// TestHubHandlerErrorPaths is the table-driven error contract for every Hub
// handler: malformed payloads, unknown sessions, and wrong methods must map
// to their documented status codes rather than fall through to a 200 or a
// panic.
func TestHubHandlerErrorPaths(t *testing.T) {
	h, _ := testHub(t, 2)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	id := createSession(t, srv.URL)

	steerBody := `{"left_pressure": 2}`
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"create malformed JSON", "POST", "/api/sessions", "{", 400},
		{"create empty body", "POST", "/api/sessions", "", 400},
		{"create wrong method", "PUT", "/api/sessions", "{}", 405},
		{"create unbounded grid", "POST", "/api/sessions", `{"nx":100000,"ny":100000,"nz":100000}`, 400},
		{"create unbounded steps", "POST", "/api/sessions", `{"steps_per_frame":1000000000}`, 400},
		{"destroy unknown id", "DELETE", "/api/sessions/nope", "", 404},
		{"destroy wrong method", "PATCH", "/api/sessions/" + id, "", 405},
		{"cm wrong method", "POST", "/api/cm", "", 405},
		{"cache wrong method", "POST", "/api/cache", "", 405},
		{"metrics wrong method", "POST", "/metrics", "", 405},
		{"viewer page unknown id", "GET", "/sessions/nope", "", 404},
		{"frame unknown id", "GET", "/sessions/nope/api/frame", "", 404},
		{"frame bad since", "GET", "/sessions/" + id + "/api/frame?since=banana", "", 400},
		{"status unknown id", "GET", "/sessions/nope/api/status", "", 404},
		{"steer unknown id", "POST", "/sessions/nope/api/steer", steerBody, 404},
		{"steer malformed JSON", "POST", "/sessions/" + id + "/api/steer", "{", 400},
		{"steer empty payload", "POST", "/sessions/" + id + "/api/steer", "{}", 400},
		{"steer unknown key", "POST", "/sessions/" + id + "/api/steer", `{"bogus": 1}`, 400},
		{"steer wrong method", "GET", "/sessions/" + id + "/api/steer", "", 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s -> %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
		})
	}

	// Destroy-twice: the first wins, the second reports the session gone.
	for i, want := range []int{200, 404} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/sessions/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("destroy #%d status %d, want %d", i+1, resp.StatusCode, want)
		}
	}
}

// endlessJSON is a request body that never ends: an opening quote followed
// by filler for as long as anyone keeps reading. It counts what was read.
type endlessJSON struct {
	prefix string
	read   int
}

func (e *endlessJSON) Read(p []byte) (int, error) {
	n := copy(p, e.prefix)
	e.prefix = e.prefix[n:]
	for i := n; i < len(p); i++ {
		p[i] = 'x'
	}
	e.read += len(p)
	return len(p), nil
}

func (e *endlessJSON) Close() error { return nil }

// TestHubBodiesAreSizeCapped: the two JSON bodies the Hub reads are cut off
// at maxBodyBytes — the handler answers 413 having read no more than the
// cap (plus the decoder's read-ahead), instead of buffering whatever a
// hostile client streams at it.
func TestHubBodiesAreSizeCapped(t *testing.T) {
	h, _ := testHub(t, 2)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	id := createSession(t, srv.URL)

	for _, tc := range []struct{ name, path, prefix string }{
		{"create", "/api/sessions", `{"simulator":"`},
		{"steer", "/sessions/" + id + "/api/steer", `{"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := &endlessJSON{prefix: tc.prefix}
			req := httptest.NewRequest("POST", tc.path, body)
			rec := httptest.NewRecorder()
			h.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413", rec.Code)
			}
			if body.read > 2*maxBodyBytes {
				t.Fatalf("handler read %d bytes of an endless body, cap is %d", body.read, maxBodyBytes)
			}
		})
	}
}

// parseMetrics reads a Prometheus text exposition into name -> value.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("metric %s has non-numeric value %q", fields[0], fields[1])
		}
		out[fields[0]] = v
	}
	return out
}

// TestHubMetricsAndCMOnVirtualClock drives the whole service on a virtual
// clock — a probe round and a known span of frame production — and then
// asserts that what /api/cm and /metrics export equals the ground truth
// read directly off the manager at the same quiescent instant. This is the
// exactness test the wall-clock HTTP tests cannot do.
func TestHubMetricsAndCMOnVirtualClock(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	mgr := steering.NewSessionManager(steering.ManagerConfig{
		MaxSessions:   4,
		Seed:          42,
		Clock:         clk,
		ProbeInterval: 500 * time.Millisecond,
		FrameBudget:   4.0,
		FrameCost:     20 * time.Millisecond,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()
	clk.AwaitArmed(1) // the prober is parked

	req := steering.DefaultRequest()
	req.NX, req.NY, req.NZ = 16, 8, 8
	req.StepsPerFrame = 1
	s, err := mgr.CreateTuned(req, 200*time.Millisecond, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	clk.AwaitArmed(2) // prober + the session's frame loop

	v := s.AttachViewer() // eager rendering + one attached viewer
	clk.Advance(2 * time.Second)
	v.Close()

	// Ground truth at quiescence: nothing advances the clock below here.
	frames := s.Status()["frame_seq"].(uint64)
	renders := s.Status()["renders"].(int)
	epoch := mgr.CM().ProbeEpoch()
	if frames == 0 || epoch == 0 {
		t.Fatalf("virtual run produced frames=%d epoch=%d, want both > 0", frames, epoch)
	}

	h := NewHub(mgr)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/cm")
	if err != nil {
		t.Fatal(err)
	}
	var cmView struct {
		ProbeEpoch    uint64 `json:"probe_epoch"`
		ProbeTimeouts uint64 `json:"probe_timeouts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cmView); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cmView.ProbeEpoch != epoch {
		t.Fatalf("/api/cm probe_epoch %d, ground truth %d", cmView.ProbeEpoch, epoch)
	}
	if cmView.ProbeTimeouts != mgr.CM().ProbeTimeouts() {
		t.Fatalf("/api/cm probe_timeouts %d, ground truth %d", cmView.ProbeTimeouts, mgr.CM().ProbeTimeouts())
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("metrics status %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	m := parseMetrics(t, string(body))

	exact := map[string]float64{
		"ricsa_frames_produced_total":   float64(frames),
		"ricsa_frames_rendered_total":   float64(renders),
		"ricsa_sessions_admitted_total": 1,
		"ricsa_viewers_attached_total":  1,
		"ricsa_viewers_detached_total":  1,
		"ricsa_viewers_evicted_total":   0,
		"ricsa_sessions_live":           1,
		"ricsa_viewers_live":            0,
		"ricsa_load_fraction":           mgr.LoadFraction(), // 20ms cost / 200ms period
		"ricsa_frame_budget":            4,
		"ricsa_cm_probe_epoch":          float64(epoch),
	}
	for name, want := range exact {
		got, ok := m[name]
		if !ok {
			t.Fatalf("metrics missing %s\n%s", name, body)
		}
		if got != want {
			t.Fatalf("%s = %g, want %g", name, got, want)
		}
	}
	// Stage timings are wall-clock sums: present and positive after real
	// frame production, even though the run paced on the virtual clock.
	for _, name := range []string{"ricsa_stage_produce_seconds_total", "ricsa_stage_sim_seconds_total"} {
		if m[name] <= 0 {
			t.Fatalf("%s = %g, want > 0", name, m[name])
		}
	}
}

// TestHubMetricsCountsSteerViewFrames posts a zoom steer through the hub on
// a virtual clock that never advances: the viewer's long poll is answered
// by the view frame it triggers, and /metrics counts that frame as
// ricsa_frames_steer_view_total.
func TestHubMetricsCountsSteerViewFrames(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	mgr := steering.NewSessionManager(steering.ManagerConfig{MaxSessions: 1, Seed: 42, Clock: clk})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()
	req := steering.DefaultRequest()
	req.NX, req.NY, req.NZ = 16, 8, 8
	req.StepsPerFrame = 1
	s, err := mgr.CreateTuned(req, 200*time.Millisecond, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	clk.AwaitArmed(1) // first frame published, the loop parked
	defer s.Attach()()
	seq0 := s.Status()["frame_seq"].(uint64)

	srv := httptest.NewServer(NewHub(mgr).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/sessions/"+s.ID+"/api/steer", "application/json", strings.NewReader(`{"zoom":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("steer status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/sessions/" + s.ID + "/api/frame?since=" + strconv.FormatUint(seq0, 10))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Frame-Seq"); resp.StatusCode != http.StatusOK || got != strconv.FormatUint(seq0+1, 10) {
		t.Fatalf("frame poll: status %d, X-Frame-Seq %q, want the view frame %d", resp.StatusCode, got, seq0+1)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m := parseMetrics(t, string(body))
	if got := m["ricsa_frames_steer_view_total"]; got != 1 {
		t.Fatalf("ricsa_frames_steer_view_total = %g, want 1\n%s", got, body)
	}
	if got := m["ricsa_frames_produced_total"]; got != float64(seq0+1) {
		t.Fatalf("ricsa_frames_produced_total = %g, want %d", got, seq0+1)
	}
}
