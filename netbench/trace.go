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

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the id of the span that caused this one (0 for an op span).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // microseconds since the tracer started
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, op int, parent int64) (id int64, start time.Time) {
	start = time.Now()
	if t == nil {
		return 0, start
	}
	t.mu.Lock()
	t.next++
	id = t.next
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: us(start.Sub(t.t0))})
	t.mu.Unlock()
	return id, start
}

// end closes span id and returns its duration.
func (t *tracer) end(id int64, start time.Time) time.Duration {
	now := time.Now()
	if t == nil {
		return now.Sub(start)
	}
	t.mu.Lock()
	t.spans[id-1].End = us(now.Sub(t.t0))
	t.mu.Unlock()
	return now.Sub(start)
}

// do times fn as span name under parent and returns the duration.
func (t *tracer) do(name string, op int, parent int64, fn func(id int64)) time.Duration {
	id, start := t.begin(name, op, parent)
	fn(id)
	return t.end(id, start)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerTimes returns each span name's self times in milliseconds: the
// span's duration minus the part of it its children cover.
func (t *tracer) layerTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		out[s.Name] = append(out[s.Name], self/1000)
	}
	return out
}

// totals returns each span name's total (inclusive) durations in
// milliseconds.
func (t *tracer) totals() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], (s.End-s.Start)/1000)
	}
	return out
}

// durations returns every span's duration in milliseconds by span id.
func (t *tracer) durations() map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]float64, len(t.spans))
	for _, s := range t.spans {
		out[s.ID] = (s.End - s.Start) / 1000
	}
	return out
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
