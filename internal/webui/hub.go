package webui

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/steering"
	"ricsa/internal/telemetry"
)

// Hub is the Ajax front end: it routes /sessions/{id}/... requests to the
// right live session of a steering.SessionManager and multiplexes any
// number of viewers onto each one. An embedding with one computation is a
// Hub over a manager holding one session (examples/webdemo).
//
// Routes:
//
//	GET    /                        service page: session list + create form
//	GET    /api/sessions            JSON array of session statuses
//	POST   /api/sessions            create a session (JSON CreateRequest)
//	DELETE /api/sessions/{id}       destroy a session
//	GET    /api/cache               shared optimizer-cache counters
//	GET    /api/cm                  control-plane state: probe epoch,
//	                                per-edge estimates and staleness,
//	                                adaptation counters
//	GET    /metrics                 Prometheus text exposition: per-frame
//	                                stage timings, session/viewer/overload
//	                                counters, control-plane gauges
//	GET    /sessions/{id}           embedded viewer page for the session
//	GET    /sessions/{id}/api/frame long-poll the next frame (?since=N)
//	POST   /sessions/{id}/api/steer steer the session
//	GET    /sessions/{id}/api/status session status JSON
type Hub struct {
	mgr *steering.SessionManager
	mux *http.ServeMux
	// PollTimeout bounds a frame long-poll before replying 204 No Content.
	PollTimeout time.Duration
}

// NewHub builds the multi-session front end over a session manager.
func NewHub(mgr *steering.SessionManager) *Hub {
	h := &Hub{mgr: mgr, mux: http.NewServeMux(), PollTimeout: 25 * time.Second}
	h.mux.HandleFunc("GET /{$}", h.handleIndex)
	h.mux.HandleFunc("GET /api/sessions", h.handleList)
	h.mux.HandleFunc("POST /api/sessions", h.handleCreate)
	h.mux.HandleFunc("DELETE /api/sessions/{id}", h.handleDestroy)
	h.mux.HandleFunc("GET /api/cache", h.handleCache)
	h.mux.HandleFunc("GET /api/cm", h.handleCM)
	h.mux.HandleFunc("GET /metrics", h.handleMetrics)
	h.mux.HandleFunc("GET /sessions/{id}", h.handleViewer)
	h.mux.HandleFunc("GET /sessions/{id}/api/frame", h.handleFrame)
	h.mux.HandleFunc("POST /sessions/{id}/api/steer", h.handleSteer)
	h.mux.HandleFunc("GET /sessions/{id}/api/status", h.handleStatus)
	return h
}

// Handler returns the http.Handler for mounting or serving.
func (h *Hub) Handler() http.Handler { return h.mux }

// CreateRequest is the POST /api/sessions payload. Zero-valued fields fall
// back to steering.DefaultRequest.
type CreateRequest struct {
	Simulator     string  `json:"simulator"`
	Variable      string  `json:"variable"`
	Method        string  `json:"method"`
	Isovalue      float64 `json:"isovalue"`
	NX            int     `json:"nx"`
	NY            int     `json:"ny"`
	NZ            int     `json:"nz"`
	StepsPerFrame int     `json:"steps_per_frame"`
	// FramePeriodMS paces the session's frame loop (default 200).
	FramePeriodMS int `json:"frame_period_ms"`
	// SourceNode and ClientNode place the session's data source and viewer
	// host on the measured testbed (defaults: the paper's GaTech -> ORNL
	// roles). ClientNodes instead requests a multi-viewer session: one
	// shared simulate/render mapping fanning out to every named host.
	SourceNode  string   `json:"source_node"`
	ClientNode  string   `json:"client_node"`
	ClientNodes []string `json:"client_nodes"`
}

func (cr CreateRequest) toRequest() steering.Request {
	req := steering.DefaultRequest()
	if cr.Simulator != "" {
		req.Simulator = cr.Simulator
	}
	if cr.Variable != "" {
		req.Variable = cr.Variable
	}
	if cr.Method != "" {
		req.Method = cr.Method
	}
	if cr.Isovalue != 0 {
		req.Isovalue = float32(cr.Isovalue)
	}
	if cr.NX > 0 {
		req.NX = cr.NX
	}
	if cr.NY > 0 {
		req.NY = cr.NY
	}
	if cr.NZ > 0 {
		req.NZ = cr.NZ
	}
	if cr.StepsPerFrame > 0 {
		req.StepsPerFrame = cr.StepsPerFrame
	}
	if cr.SourceNode != "" {
		req.SourceNode = cr.SourceNode
	}
	if cr.ClientNode != "" {
		req.ClientNode = cr.ClientNode
	}
	if len(cr.ClientNodes) > 0 {
		req.ClientNodes = cr.ClientNodes
	}
	return req
}

// session resolves the {id} path value, writing 404 on a miss.
func (h *Hub) session(w http.ResponseWriter, r *http.Request) *steering.ManagedSession {
	s, ok := h.mgr.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such session", http.StatusNotFound)
		return nil
	}
	return s
}

// maxBodyBytes caps the JSON bodies the Hub reads (session create, steer).
// Both are a handful of scalar fields; the cap is there so a hostile client
// cannot make the decoder buffer an unbounded body.
const maxBodyBytes = 64 << 10

// decodeBody decodes a size-capped JSON request body into dst, replying 413
// past maxBodyBytes and 400 on malformed JSON. what names the payload in
// the error text.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(dst)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "bad "+what+" payload: "+err.Error(), code)
	return false
}

func (h *Hub) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cr CreateRequest
	if !decodeBody(w, r, &cr, "session") {
		return
	}
	s, err := h.mgr.CreateTuned(cr.toRequest(),
		time.Duration(cr.FramePeriodMS)*time.Millisecond, 0, 0)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, steering.ErrSessionLimit) {
			code = http.StatusTooManyRequests
		} else if errors.Is(err, steering.ErrShuttingDown) || errors.Is(err, steering.ErrOverloaded) {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(map[string]any{"id": s.ID, "url": "/sessions/" + s.ID})
}

func (h *Hub) handleDestroy(w http.ResponseWriter, r *http.Request) {
	if err := h.mgr.Destroy(r.PathValue("id")); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"ok":true}`)
}

func (h *Hub) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := h.mgr.List()
	out := make([]map[string]any, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.Status())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (h *Hub) handleCache(w http.ResponseWriter, r *http.Request) {
	st := h.mgr.CacheStats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"hits": st.Hits, "misses": st.Misses, "entries": st.Entries,
	})
}

func (h *Hub) handleCM(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h.mgr.CM().Status())
}

func (h *Hub) handleViewer(w http.ResponseWriter, r *http.Request) {
	s := h.session(w, r)
	if s == nil {
		return
	}
	req := s.Request()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, clientPage("/sessions/"+s.ID, fmt.Sprintf("RICSA session %s — %s → %s",
		s.ID, req.SourceNode, strings.Join(req.Destinations(), ", "))))
}

func (h *Hub) handleFrame(w http.ResponseWriter, r *http.Request) {
	s := h.session(w, r)
	if s == nil {
		return
	}
	// Tier negotiation: the client hints a quality rung (?tier=half etc.)
	// and the session clamps it to the manager's MaxTier budget; the
	// X-Frame-Tier response header reports what was actually served.
	tier, err := cost.ParseTier(r.URL.Query().Get("tier"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Tracked attach: the session accounts what this client has consumed,
	// and the slow-consumer policy may evict it mid-poll (503 below tells
	// the client to back off and re-join at the live edge).
	v := s.AttachViewerTier(tier)
	defer v.Close()
	serveFrame(w, r, h.PollTimeout, v.Tier(), v.Wait)
}

// handleMetrics serves the Prometheus text exposition: the telemetry
// collector's counters plus instantaneous service and control-plane
// gauges. Scrapes are cold-path; nothing here touches session hot paths.
func (h *Hub) handleMetrics(w http.ResponseWriter, r *http.Request) {
	viewers := 0
	for _, s := range h.mgr.List() {
		viewers += s.Viewers()
	}
	cache := h.mgr.CacheStats()
	cmgr := h.mgr.CM()
	cmStatus := cmgr.Status()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	gauges := []telemetry.Gauge{
		{Name: "ricsa_sessions_live", Help: "Currently live sessions.", Value: float64(h.mgr.Len())},
		{Name: "ricsa_viewers_live", Help: "Currently attached viewers across all sessions.", Value: float64(viewers)},
		{Name: "ricsa_load_fraction", Help: "Admitted frame-budget utilization (admission watermark input).", Value: h.mgr.LoadFraction()},
		{Name: "ricsa_frame_budget", Help: "Configured admission watermark (0 = disabled).", Value: h.mgr.FrameBudget()},
		{Name: "ricsa_cm_probe_epoch", Help: "Completed background probe sweeps.", Value: float64(cmStatus.ProbeEpoch)},
		{Name: "ricsa_cm_probe_timeouts", Help: "Probe transfers abandoned at the probe budget.", Value: float64(cmStatus.ProbeTimeouts)},
		{Name: "ricsa_cm_graph_restamps", Help: "Tolerance-gated graph re-stamps.", Value: float64(cmStatus.Restamps)},
		{Name: "ricsa_cm_adaptations", Help: "Adapter-forced re-optimizations.", Value: float64(cmgr.Adaptations())},
		{Name: "ricsa_cache_hits", Help: "Optimizer cache hits.", Value: float64(cache.Hits)},
		{Name: "ricsa_cache_misses", Help: "Optimizer cache misses.", Value: float64(cache.Misses)},
		{Name: "ricsa_cache_entries", Help: "Optimizer cache entries.", Value: float64(cache.Entries)},
	}
	// Per-edge loss estimates feeding FEC redundancy provisioning
	// (DESIGN §13). The Gauge type carries no labels, so the edge pair is
	// baked into the metric name; Status().Edges order is the Manager's
	// construction order, so the exposition stays deterministic.
	for _, e := range cmStatus.Edges {
		gauges = append(gauges, telemetry.Gauge{
			Name:  "ricsa_edge_loss_estimate_" + metricLabel(e.From) + "_" + metricLabel(e.To),
			Help:  "EWMA packet-loss estimate for edge " + e.From + " -> " + e.To + ".",
			Value: e.Loss,
		})
	}
	h.mgr.Telemetry().WritePrometheus(w, gauges...)
}

// metricLabel folds a testbed node name into a Prometheus-safe metric
// name fragment: lower-cased, then sanitized by the telemetry writer's
// own name rules, so a hostile node name can never splice extra series or
// break the exposition syntax.
func metricLabel(name string) string {
	return telemetry.SanitizeMetricName(strings.ToLower(name))
}

func (h *Hub) handleSteer(w http.ResponseWriter, r *http.Request) {
	s := h.session(w, r)
	if s == nil {
		return
	}
	var params map[string]float64
	if !decodeBody(w, r, &params, "steering") {
		return
	}
	if len(params) == 0 {
		http.Error(w, "empty steering payload", http.StatusBadRequest)
		return
	}
	if err := s.Steer(params); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"ok":true}`)
}

func (h *Hub) handleStatus(w http.ResponseWriter, r *http.Request) {
	s := h.session(w, r)
	if s == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Status())
}

func (h *Hub) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, hubHTML)
}

// hubHTML is the service page: lists live sessions (each linking to its
// viewer), shows optimizer-cache counters, and offers a create form.
const hubHTML = `<!DOCTYPE html>
<html>
<head>
<title>RICSA — sessions</title>
<style>
 body { font-family: sans-serif; background: #1b1b22; color: #ddd; margin: 1.5em; }
 table { border-collapse: collapse; margin-top: 1em; }
 td, th { border: 1px solid #444; padding: .35em .7em; text-align: left; }
 a { color: #8ac; }
 #cache, #cm { margin-top: 1em; color: #9a9; font-size: .9em; }
 form { margin-top: 1.5em; }
 label { margin-right: 1em; }
 input, select { width: 7em; }
</style>
</head>
<body>
<h2>RICSA sessions</h2>
<table id="sessions"><tr><th>id</th><th>simulator</th><th>endpoints</th><th>frame</th>
<th>viewers</th><th>mapping</th><th></th></tr></table>
<div id="cache"></div>
<div id="cm"></div>
<form id="create">
  <label>Simulator <select name="simulator">
    <option value="sod">sod</option><option value="bowshock">bowshock</option>
  </select></label>
  <label>Method <select name="method">
    <option value="isosurface">isosurface</option>
    <option value="raycast">raycast</option>
    <option value="streamline">streamline</option>
  </select></label>
  <label>Source <select name="source_node" id="source_node"></select></label>
  <label>Client <select name="client_node" id="client_node"></select></label>
  <label>Fan-out <input name="client_nodes" placeholder="UT,NCState,..." title="comma-separated viewer hosts; overrides Client with a shared routing tree"></label>
  <button type="submit">New session</button>
</form>
<script>
function fillNodeSelects(names) {
  for (const [id, def] of [['source_node', 'GaTech'], ['client_node', 'ORNL']]) {
    const sel = document.getElementById(id);
    if (sel.options.length) continue;
    for (const n of names) {
      const o = document.createElement('option');
      o.value = o.textContent = n;
      if (n === def) o.selected = true;
      sel.appendChild(o);
    }
  }
}
async function refresh() {
  const rows = [['id','simulator','endpoints','frame','viewers','mapping','']];
  try {
    const sessions = await (await fetch('/api/sessions')).json();
    for (const s of sessions) {
      rows.push(['<a href="/sessions/' + s.id + '">' + s.id + '</a>',
                 s.simulator,
                 s.source_node + ' → ' + (s.client_nodes || []).join(','),
                 s.frame_seq, s.viewers,
                 (s.vrt_path || []).join(' → '),
                 '<button data-id="' + s.id + '">destroy</button>']);
    }
    const cache = await (await fetch('/api/cache')).json();
    document.getElementById('cache').textContent =
      'optimizer cache: ' + cache.hits + ' hits / ' + cache.misses +
      ' misses / ' + cache.entries + ' entries';
    const cm = await (await fetch('/api/cm')).json();
    fillNodeSelects(cm.node_names || []);
    document.getElementById('cm').textContent =
      'control plane: probe epoch ' + cm.probe_epoch + ' / ' +
      cm.restamps + ' restamps / ' + cm.adaptations + ' adaptations';
  } catch (e) {}
  const table = document.getElementById('sessions');
  table.innerHTML = rows.map((r, i) =>
    '<tr>' + r.map(c => (i ? '<td>' : '<th>') + c + (i ? '</td>' : '</th>')).join('') + '</tr>'
  ).join('');
}
document.getElementById('sessions').addEventListener('click', async (ev) => {
  const id = ev.target.dataset && ev.target.dataset.id;
  if (id) { await fetch('/api/sessions/' + id, {method: 'DELETE'}); refresh(); }
});
document.getElementById('create').addEventListener('submit', async (ev) => {
  ev.preventDefault();
  const body = {};
  for (const el of ev.target.elements) if (el.name && el.value) body[el.name] = el.value;
  if (body.client_nodes) body.client_nodes = body.client_nodes.split(',').map(s => s.trim()).filter(Boolean);
  await fetch('/api/sessions', {method: 'POST', body: JSON.stringify(body)});
  refresh();
});
refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
`
