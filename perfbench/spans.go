package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the recorder's memory; spans beyond it are counted,
// not kept.
const maxSpans = 1 << 19

// span is one timed call into a layer, recorded by the benchmark around
// the call. parent is the index of the enclosing span (-1 for a root) and
// op identifies the operation (trace, campaign or request) it belongs to.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int
	op         int64
	lane       int
}

// tracer keeps a run's spans in memory and writes them out at exit as
// Chrome-trace JSON, the format `emsim -trace` writes. It is safe for
// concurrent use.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, parent int, op int64, lane int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op, lane: lane})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, start, end time.Time, parent int, op int64, lane int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch), parent: parent, op: op, lane: lane})
	return len(t.spans) - 1
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write renders every closed span as a Chrome "complete" event
// (microsecond timestamps) with its id, parent and operation in args.
func (t *tracer) write(path, env string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]chromeEvent, 0, len(t.spans))
	open := 0
	for i, s := range t.spans {
		if s.end < 0 {
			open++
			continue
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "op": s.op},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"env": json.RawMessage(env), "dropped_spans": t.dropped, "unclosed_spans": open},
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
