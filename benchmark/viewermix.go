package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/steering"
	"ricsa/internal/viz"
	"ricsa/internal/webui"
)

// viewer-mix is the only workload where webui and the steering viewer,
// waitFrame and Steer paths do most of the work: one multi-viewer session
// (client nodes ORNL, UT, NCState; tier budget down to delta) at a 500 ms
// frame period, so the simulation uses under a tenth of a core, with a
// held viewer per tier so every tier is encoded each frame.
//
// Connection 1 reads, closed loop, back to back: GET frame?since=0 cycling
// the tiers full, half, quarter, delta. Connection 2 writes and watches,
// closed loop with 5 ms think time: POST steer (yaw), GET status, GET
// /metrics, GET /api/cm, and every two seconds POST /api/sessions, first
// frame, DELETE. Reads and writes meet on the same session mutex, so a
// read-side gain paid for on the write side shows.
const (
	mixFramePeriodMS = 500
	mixThink         = 5 * time.Millisecond
	mixCreateEvery   = 2 * time.Second
)

var mixTiers = []string{"full", "half", "quarter", "delta"}

// mixEdge is the frame edge each tier must decode to.
var mixEdge = map[string]int{"full": frameEdge, "half": frameEdge / 2, "quarter": frameEdge / 4, "delta": frameEdge}

type mixRig struct {
	st     *stack
	reader *conn
	writer *conn
	id     string
	held   []func()
}

func (r *mixRig) close() error {
	for _, release := range r.held {
		release()
	}
	r.reader.close()
	r.writer.close()
	return r.st.close()
}

func setupViewerMix(cfg runConfig) (*mixRig, error) {
	st, err := startStack(steering.ManagerConfig{MaxTier: cost.TierDelta}, cfg.traced)
	if err != nil {
		return nil, err
	}
	r := &mixRig{st: st, reader: newConn(st.base), writer: newConn(st.base)}
	err = func() error {
		var err error
		r.id, err = r.writer.createSession(webui.CreateRequest{
			FramePeriodMS: mixFramePeriodMS,
			ClientNodes:   []string{"ORNL", "UT", "NCState"},
		})
		if err != nil {
			return err
		}
		s, ok := st.mgr.Get(r.id)
		if !ok {
			return fmt.Errorf("session %s vanished after create", r.id)
		}
		r.held = append(holdTiers(s), s.Attach())
		if _, ok, err := r.reader.fetchFrame(r.id, 0, ""); err != nil || !ok {
			return fmt.Errorf("first frame: ok=%v err=%v", ok, err)
		}
		return nil
	}()
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

type bodyKey struct {
	seq  uint64
	tier string
}

// mixReader is connection 1's record; it belongs to the reader goroutine
// until that has exited.
type mixReader struct {
	stop    atomic.Bool
	fetches int
	fetchUS []float64
	bytes   float64
	errs    []string
	// bodies holds the first body seen for every (frame, tier). Every later
	// body for the same key must equal it byte for byte, and each kept body
	// is decoded after the window — so every reply is checked without a
	// PNG decode in the timed loop, where it would measure the client.
	bodies map[bodyKey][]byte
	spans  []clientSpan
}

// clientSpan is one request as its client timed it; label is the tier of
// a fetch or the name of a write.
type clientSpan struct {
	start, end time.Time
	label      string
}

func (m *mixReader) loop(r *mixRig, start time.Time, traced bool, done chan<- struct{}) {
	defer close(done)
	m.bodies = make(map[bodyKey][]byte)
	for i := 0; !m.stop.Load(); i++ {
		tier := mixTiers[i%len(mixTiers)]
		sent := time.Now()
		f, ok, err := r.reader.fetchFrame(r.id, 0, tier)
		got := time.Now()
		m.fetches++
		switch {
		case err != nil:
			m.errs = append(m.errs, err.Error())
			continue
		case !ok:
			m.errs = append(m.errs, "since=0 fetch timed out")
			continue
		case f.tier != tier:
			m.errs = append(m.errs, fmt.Sprintf("asked tier %s, X-Frame-Tier %q", tier, f.tier))
			continue
		}
		key := bodyKey{f.seq, tier}
		if first, seen := m.bodies[key]; !seen {
			m.bodies[key] = append([]byte(nil), f.body...)
		} else if !bytes.Equal(first, f.body) {
			m.errs = append(m.errs, fmt.Sprintf("frame %d tier %s changed between fetches", f.seq, tier))
			continue
		}
		if sent.Before(start) {
			continue
		}
		m.fetchUS = append(m.fetchUS, us(got.Sub(sent)))
		m.bytes += float64(len(f.body))
		if traced && len(m.spans) < 2000 {
			m.spans = append(m.spans, clientSpan{sent, got, tier})
		}
	}
}

// mixWriter is connection 2's record; it belongs to the writer goroutine
// until that has exited.
type mixWriter struct {
	stop         atomic.Bool
	ops          int
	steerUS      []float64
	firstFrameMS []float64
	errs         []string
	spans        []clientSpan
	traced       bool
}

func (m *mixWriter) check(what string, r reply, err error, want int) bool {
	m.ops++
	if err != nil {
		m.errs = append(m.errs, what+": "+err.Error())
		return false
	}
	if r.status != want {
		m.errs = append(m.errs, fmt.Sprintf("%s: status %d, want %d", what, r.status, want))
		return false
	}
	return true
}

func (m *mixWriter) span(name string, start time.Time) {
	if m.traced && len(m.spans) < 2000 {
		m.spans = append(m.spans, clientSpan{start, time.Now(), name})
	}
}

func (m *mixWriter) loop(r *mixRig, seed int64, done chan<- struct{}) {
	defer close(done)
	rng := rand.New(rand.NewSource(seed))
	base := "/sessions/" + r.id + "/api/"
	nextCreate := time.Now().Add(mixCreateEvery)
	for i := 0; !m.stop.Load(); i++ {
		start := time.Now()
		switch i % 4 {
		case 0:
			payload := []byte(`{"yaw":` + strconv.FormatFloat(0.4+rng.Float64(), 'f', 4, 64) + `}`)
			rep, err := r.writer.do(http.MethodPost, base+"steer", payload)
			if m.check("steer", rep, err, http.StatusOK) {
				m.steerUS = append(m.steerUS, us(time.Since(start)))
			}
			m.span("client.steer", start)
		case 1:
			rep, err := r.writer.get(base + "status")
			var st struct {
				FrameSeq uint64 `json:"frame_seq"`
			}
			if m.check("status", rep, err, http.StatusOK) && (json.Unmarshal(rep.body, &st) != nil || st.FrameSeq == 0) {
				m.errs = append(m.errs, "status: no frame_seq in reply")
			}
			m.span("client.status", start)
		case 2:
			rep, err := r.writer.get("/metrics")
			if m.check("metrics", rep, err, http.StatusOK) {
				if exp, err := parseExposition(rep.body); err != nil || exp["ricsa_sessions_live"] < 1 {
					m.errs = append(m.errs, fmt.Sprintf("metrics: live=%g err=%v", exp["ricsa_sessions_live"], err))
				}
			}
			m.span("client.metrics", start)
		case 3:
			rep, err := r.writer.get("/api/cm")
			var st struct {
				Nodes int `json:"nodes"`
			}
			if m.check("cm", rep, err, http.StatusOK) && (json.Unmarshal(rep.body, &st) != nil || st.Nodes == 0) {
				m.errs = append(m.errs, "cm: no nodes in reply")
			}
			m.span("client.cm", start)
		}
		time.Sleep(mixThink)
		if time.Now().After(nextCreate) {
			nextCreate = nextCreate.Add(mixCreateEvery)
			m.churnSession(r)
		}
	}
}

// churnSession creates a session, reads its first frame and destroys it.
func (m *mixWriter) churnSession(r *mixRig) {
	start := time.Now()
	m.ops++
	id, err := r.writer.createSession(webui.CreateRequest{FramePeriodMS: mixFramePeriodMS})
	if err != nil {
		m.errs = append(m.errs, err.Error())
		return
	}
	m.ops++
	f, ok, err := r.writer.fetchFrame(id, 0, "")
	if _, _, isPNG := pngSize(f.body); err != nil || !ok || !isPNG {
		m.errs = append(m.errs, fmt.Sprintf("first frame of %s: ok=%v png=%v err=%v", id, ok, isPNG, err))
	} else {
		m.firstFrameMS = append(m.firstFrameMS, ms(time.Since(start)))
		m.span("client.session_first_frame", start)
	}
	rep, err := r.writer.do(http.MethodDelete, "/api/sessions/"+id, nil)
	m.check("delete", rep, err, http.StatusOK)
}

// decodeKept decodes every kept body: a PNG of the tier's dimensions, or
// a delta container whose reconstruction matches the full frame of the
// same sequence pixel for pixel in lit count.
func decodeKept(out *outcome, bodies map[bodyKey][]byte) {
	litFull := make(map[uint64]int)
	for key, body := range bodies {
		if key.tier == "delta" {
			continue
		}
		lit, w, h, err := litPixels(body)
		if err != nil || w != mixEdge[key.tier] || h != mixEdge[key.tier] {
			out.violate("frame %d tier %s: %dx%d, err %v", key.seq, key.tier, w, h, err)
		}
		if key.tier == "full" {
			litFull[key.seq] = lit
		}
	}
	for key, body := range bodies {
		if key.tier != "delta" {
			continue
		}
		df, err := viz.ParseDeltaFrame(body)
		if err != nil {
			out.violate("frame %d tier delta: %v", key.seq, err)
			continue
		}
		var dec viz.DeltaDecoder
		img, err := dec.Apply(df)
		if err != nil || img.W != frameEdge || img.H != frameEdge {
			out.violate("frame %d tier delta: reconstruction failed: %v", key.seq, err)
			continue
		}
		if want, ok := litFull[key.seq]; ok && img.NonBlackPixels() != want {
			out.violate("frame %d: delta reconstructs %d lit pixels, full frame has %d", key.seq, img.NonBlackPixels(), want)
		}
	}
}

func runViewerMix(cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{layer: make(map[string]float64)}
	rig, err := repeatSetup(cfg, out, setupViewerMix)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	reader, writer := &mixReader{}, &mixWriter{traced: cfg.traced}
	readDone, writeDone := make(chan struct{}), make(chan struct{})
	// Both connections run through the warm-up; the reader only keeps
	// samples sent after the window opens.
	start := time.Now().Add(cfg.warmup())
	go reader.loop(rig, start, cfg.traced, readDone)
	go writer.loop(rig, cfg.seed, writeDone)
	time.Sleep(time.Until(start))
	before := rig.st.counters()
	procBefore := readProc()
	heapPeak := waitWindow(start.Add(cfg.window), cfg.traced)
	procAfter := readProc()
	elapsed := time.Since(start)
	reader.stop.Store(true)
	writer.stop.Store(true)
	<-readDone
	<-writeDone

	out.attempted = reader.fetches + writer.ops
	for _, e := range reader.errs {
		out.violate("reader: %s", e)
	}
	for _, e := range writer.errs {
		out.violate("writer: %s", e)
	}
	decodeKept(out, reader.bodies)
	for _, v := range reader.fetchUS {
		out.latencyMS = append(out.latencyMS, v/1000)
	}
	out.throughput = float64(len(reader.fetchUS)) / elapsed.Seconds()
	after, err := rig.writer.scrape()
	if err != nil {
		return nil, err
	}
	checkLive(out, after, 1)
	if len(writer.firstFrameMS) == 0 && cfg.window >= 2*mixCreateEvery {
		out.violate("no session was created and served in the window")
	}

	if cfg.traced {
		recs := rig.st.sink.since(start)
		frameLayer(out.layer, recs, before, after)
		procLayer(out.layer, procBefore, procAfter, float64(len(reader.fetchUS)), heapPeak)
		out.layer["webui.frame_fetch_p99_us"] = quantile(sortedCopy(reader.fetchUS), 0.99)
		out.layer["webui.steer_post_p50_us"] = median(writer.steerUS)
		out.layer["webui.session_first_frame_p50_ms"] = median(writer.firstFrameMS)
		out.layer["webui.bytes_per_frame"] = ratio(reader.bytes, float64(len(reader.fetchUS)))
		for i, s := range reader.spans {
			tr.add("fetch-"+strconv.Itoa(i), 0, "client.fetch", s.start, s.end, map[string]string{"tier": s.label})
		}
		for i, s := range writer.spans {
			tr.add("write-"+strconv.Itoa(i), 0, s.label, s.start, s.end, nil)
		}
		for _, r := range recs {
			traceFrame(tr, r.Session+"/"+strconv.FormatUint(r.Seq, 10), 0, r)
		}
	}
	return out, nil
}
