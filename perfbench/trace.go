package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while enabled; a nil or disabled tracer
// records nothing and costs a branch per call.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) newOp() int64 {
	if !t.enabled() {
		return 0
	}
	return t.ops.Add(1)
}

func (t *tracer) begin(name string, parent, op int64) int64 {
	if !t.enabled() {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int64) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent, op int64, fn func()) time.Duration {
	id := t.begin(name, parent, op)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns, per span name, each span's duration minus the
// part its children cover (children of one span never overlap here:
// the benchmark calls layers one after another).
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[s.ID])/1e3)
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
