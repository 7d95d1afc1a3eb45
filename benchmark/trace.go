package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// (a steer probe, a frame, a churn epoch) share Trace; Parent is the ID of
// the span that caused this one, 0 for a root. A layer's self time is its
// span's duration minus the part its children cover.
type span struct {
	Trace   string            `json:"trace"`
	ID      int               `json:"id"`
	Parent  int               `json:"parent"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	Tags    map[string]string `json:"tags,omitempty"`
}

// maxSpans bounds the trace file: at 20k requests a second an unbounded
// trace of a 20 s run would be gigabytes. Spans past the cap are counted,
// not kept.
const maxSpans = 200000

// tracer keeps spans in memory until the run ends. A nil tracer (an
// untraced run) records nothing.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its id for children to name as parent.
func (t *tracer) add(trace string, parent int, name string, start, end time.Time, tags map[string]string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		StartNS: int64(start.Sub(t.origin)), EndNS: int64(end.Sub(t.origin)), Tags: tags,
	})
	return id
}

// traceDir is where traced runs leave their span files, relative to the
// directory the benchmark is run from (the smoke test points it elsewhere).
var traceDir = "benchmark/out"

func (t *tracer) write(workload string) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, t.dropped, t.spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(traceDir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
