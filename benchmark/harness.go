package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ricsa/internal/fcp"
	"ricsa/internal/steering"
	"ricsa/internal/telemetry"
	"ricsa/internal/webui"
)

// stack is the program under test as a live workload sees it: a
// SessionManager with its own compute pool, served by a webui.Hub on a
// loopback socket. Everything the benchmark does to it goes through the
// socket or the manager's public API.
type stack struct {
	mgr    *steering.SessionManager
	pool   *fcp.Pool
	srv    *http.Server
	base   string
	served chan error
	// sink is non-nil only on a traced run.
	sink *frameSink
}

// startStack builds and serves one stack. The background prober stays off
// (ProbeInterval 0) so wall-clock probing does not perturb the live
// workloads; the compute pool is sized by the machine, as ricsa-server
// sizes it, unless cfg brings its own; a traced run installs a batch-of-one
// collector so every FrameRecord reaches the sink as its frame is published.
func startStack(cfg steering.ManagerConfig, traced bool) (*stack, error) {
	if cfg.ComputePool == nil {
		cfg.ComputePool = fcp.NewPool(0)
	}
	st := &stack{pool: cfg.ComputePool, served: make(chan error, 1)}
	cfg.ProbeInterval = 0
	if traced {
		st.sink = &frameSink{}
		cfg.Telemetry = telemetry.NewCollector(st.sink, 1)
	}
	st.mgr = steering.NewSessionManager(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.pool.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.base = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: webui.NewHub(st.mgr).Handler()}
	go func() { st.served <- st.srv.Serve(ln) }()
	return st, nil
}

// close stops the sessions, the server and the pool, and returns once the
// serve goroutine and every pool worker have exited.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.mgr.Shutdown(ctx)
	if cerr := st.srv.Shutdown(ctx); err == nil {
		err = cerr
	}
	<-st.served
	st.pool.Close()
	return err
}

// counters renders the collector's exposition in-process — the same series
// /metrics serves, without its gauges — for when both connections are busy.
func (st *stack) counters() map[string]float64 {
	var buf bytes.Buffer
	st.mgr.Telemetry().WritePrometheus(&buf)
	m, _ := parseExposition(buf.Bytes())
	return m
}

// closer is a set-up workload that can be torn down.
type closer interface{ close() error }

// repeatSetup sets the workload up cfg.setups times, timing each, and
// returns the last one for measurement; the earlier ones are torn down.
func repeatSetup[T closer](cfg runConfig, out *outcome, setup func(runConfig) (T, error)) (T, error) {
	var rig T
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		r, err := setup(cfg)
		if err != nil {
			return rig, fmt.Errorf("setup: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			if err := r.close(); err != nil {
				return rig, fmt.Errorf("teardown: %w", err)
			}
			continue
		}
		rig = r
	}
	return rig, nil
}

// conn is one load-generating HTTP connection: a client whose transport
// holds at most one socket, used by one goroutine at a time.
type conn struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 40 * time.Second}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// reply is one HTTP exchange. body aliases the connection's read buffer
// and is valid until the connection's next request.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func (c *conn) do(method, path string, payload []byte) (reply, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return reply{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: c.buf.Bytes()}, nil
}

func (c *conn) get(path string) (reply, error) { return c.do(http.MethodGet, path, nil) }

// createSession posts a session and returns its id.
func (c *conn) createSession(req webui.CreateRequest) (string, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	r, err := c.do(http.MethodPost, "/api/sessions", payload)
	if err != nil {
		return "", err
	}
	if r.status != http.StatusCreated {
		return "", fmt.Errorf("create session: status %d: %s", r.status, strings.TrimSpace(string(r.body)))
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(r.body, &out); err != nil {
		return "", fmt.Errorf("create session: %w", err)
	}
	return out.ID, nil
}

// frame is one fetched frame reply, checked as far as its headers go.
type frame struct {
	seq  uint64
	tier string
	body []byte
}

// fetchFrame long-polls a session's frame endpoint. ok is false on the
// poll-timeout reply (204), which carries no frame.
func (c *conn) fetchFrame(id string, since uint64, tier string) (f frame, ok bool, err error) {
	path := "/sessions/" + id + "/api/frame?since=" + strconv.FormatUint(since, 10)
	if tier != "" {
		path += "&tier=" + tier
	}
	r, err := c.get(path)
	if err != nil {
		return frame{}, false, err
	}
	if r.status == http.StatusNoContent {
		return frame{}, false, nil
	}
	if r.status != http.StatusOK {
		return frame{}, false, fmt.Errorf("frame: status %d: %s", r.status, strings.TrimSpace(string(r.body)))
	}
	seq, err := strconv.ParseUint(r.header.Get("X-Frame-Seq"), 10, 64)
	if err != nil {
		return frame{}, false, fmt.Errorf("frame: bad X-Frame-Seq %q", r.header.Get("X-Frame-Seq"))
	}
	return frame{seq: seq, tier: r.header.Get("X-Frame-Tier"), body: r.body}, true, nil
}

// scrape fetches /metrics and parses the exposition into name -> value.
func (c *conn) scrape() (map[string]float64, error) {
	r, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", r.status)
	}
	return parseExposition(r.body)
}

func parseExposition(text []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, found := strings.Cut(line, " ")
		if !found {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// litPixels decodes a PNG and counts the pixels that are not the
// renderer's black background — the quantity a zoom steer changes 16-fold.
func litPixels(body []byte) (lit, w, h int, err error) {
	img, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		return 0, 0, 0, err
	}
	b := img.Bounds()
	var pix []uint8
	switch im := img.(type) {
	case *image.RGBA:
		pix = im.Pix
	case *image.NRGBA:
		pix = im.Pix
	default:
		return 0, 0, 0, fmt.Errorf("unexpected PNG colour model %T", img)
	}
	for p := pix; len(p) >= 4; p = p[4:] {
		if p[0]|p[1]|p[2] != 0 {
			lit++
		}
	}
	return lit, b.Dx(), b.Dy(), nil
}

// pngSize reads a PNG's dimensions from its header without decoding the
// pixels.
func pngSize(body []byte) (w, h int, ok bool) {
	cfg, err := png.DecodeConfig(bytes.NewReader(body))
	return cfg.Width, cfg.Height, err == nil
}

// frameSink is the benchmark-owned telemetry sink of a traced run: it
// copies every FrameRecord and stamps its arrival. RecordFrame runs right
// after publish, so arrival is the publish time and arrival-ProduceNS the
// start of produce, which places each frame on the wall clock from
// outside the program.
type frameSink struct {
	mu   sync.Mutex
	recs []sunkFrame
}

type sunkFrame struct {
	telemetry.FrameRecord
	arrival time.Time
}

func (s *frameSink) Flush(batch []telemetry.FrameRecord) {
	now := time.Now()
	s.mu.Lock()
	for i := range batch {
		s.recs = append(s.recs, sunkFrame{batch[i], now})
	}
	s.mu.Unlock()
}

// since returns the records that arrived at or after t.
func (s *frameSink) since(t time.Time) []sunkFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []sunkFrame
	for _, r := range s.recs {
		if !r.arrival.Before(t) {
			out = append(out, r)
		}
	}
	return out
}

// quantile returns the q-quantile of sorted by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
