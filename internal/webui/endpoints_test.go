//ricsa:wallclock end-to-end HTTP integration against a live wall-clock SessionManager; polls observable state under bounded deadlines (the deterministic equivalents run in hub_test.go on the virtual clock)

package webui

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postSession posts a CreateRequest and returns (status, decoded body).
func postSession(t *testing.T, url string, cr CreateRequest) (int, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(cr)
	resp, err := http.Post(url+"/api/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]any{}
	json.Unmarshal(raw, &out)
	out["_raw"] = string(raw)
	return resp.StatusCode, out
}

// TestHubCreateWithEndpoints: the session-create JSON carries endpoints
// through to the session, the status reports them, and the installed
// mapping runs between them.
func TestHubCreateWithEndpoints(t *testing.T) {
	h, mgr := testHub(t, 2)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	code, out := postSession(t, srv.URL, CreateRequest{
		Simulator: "sod", NX: 16, NY: 8, NZ: 8, StepsPerFrame: 1, FramePeriodMS: 3,
		SourceNode: "OSU", ClientNode: "UT",
	})
	if code != http.StatusCreated {
		t.Fatalf("create status %d: %v", code, out["_raw"])
	}
	id := out["id"].(string)
	s, ok := mgr.Get(id)
	if !ok {
		t.Fatal("session not registered")
	}
	deadline := time.Now().Add(15 * time.Second)
	for s.Status()["reoptimizations"].(int) < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/sessions/" + id + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st["source_node"] != "OSU" {
		t.Fatalf("status source_node = %v, want OSU", st["source_node"])
	}
	path, _ := st["vrt_path"].([]any)
	if len(path) < 2 || path[0] != "OSU" || path[len(path)-1] != "UT" {
		t.Fatalf("vrt_path %v does not run OSU -> UT", path)
	}

	// The viewer page names the endpoints.
	resp, err = http.Get(srv.URL + "/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "OSU") || !strings.Contains(string(page), "UT") {
		t.Fatal("viewer page does not show the session endpoints")
	}
}

// TestHubCreateMultiViewer: client_nodes requests a fan-out session whose
// status carries the routing-tree branches.
func TestHubCreateMultiViewer(t *testing.T) {
	h, mgr := testHub(t, 2)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	code, out := postSession(t, srv.URL, CreateRequest{
		Simulator: "sod", NX: 16, NY: 8, NZ: 8, StepsPerFrame: 1, FramePeriodMS: 3,
		SourceNode: "GaTech", ClientNodes: []string{"ORNL", "UT", "NCState"},
	})
	if code != http.StatusCreated {
		t.Fatalf("create status %d: %v", code, out["_raw"])
	}
	id := out["id"].(string)
	s, _ := mgr.Get(id)
	deadline := time.Now().Add(15 * time.Second)
	for s.Status()["vrt_path"] == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/sessions/" + id + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	branches, _ := st["tree_branches"].([]any)
	if len(branches) != 3 {
		t.Fatalf("tree_branches = %v, want 3 entries", st["tree_branches"])
	}
	clients, _ := st["client_nodes"].([]any)
	if len(clients) != 3 || clients[1] != "UT" {
		t.Fatalf("client_nodes = %v", st["client_nodes"])
	}
}

// TestHubCreateRejectsUnknownEndpoint: a bad host is a 400, not a silently
// remapped session.
func TestHubCreateRejectsUnknownEndpoint(t *testing.T) {
	h, mgr := testHub(t, 2)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	code, out := postSession(t, srv.URL, CreateRequest{
		Simulator: "sod", NX: 16, NY: 8, NZ: 8, StepsPerFrame: 1, FramePeriodMS: 3,
		SourceNode: "Narnia",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("create with unknown source: status %d (%v)", code, out["_raw"])
	}
	if mgr.Len() != 0 {
		t.Fatal("rejected create leaked a session")
	}
}

// TestCMStatusListsNodeNames: the control-plane endpoint publishes the
// valid endpoint names the create form offers.
func TestCMStatusListsNodeNames(t *testing.T) {
	h, _ := testHub(t, 1)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/cm")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	names, _ := st["node_names"].([]any)
	if len(names) != 6 {
		t.Fatalf("node_names = %v, want the six testbed hosts", st["node_names"])
	}
}
