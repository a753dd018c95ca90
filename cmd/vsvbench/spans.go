package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer's
// public functions. Spans stay in memory and are written out when the run
// ends. A nil *tracer records nothing, which is how untraced runs and
// untraced repetitions measure with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

// span is one timed call: Parent is the enclosing span's ID (0 at the top)
// and Req the request or point it served, shared by every span of one
// request.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`

	t *tracer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; end closes it. Both are no-ops on a nil tracer.
func (t *tracer) begin(name string, parent *span, req string) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Req: req, t: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = time.Since(t.t0)
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	d := time.Since(s.t.t0)
	s.t.mu.Lock()
	s.End = d
	s.t.mu.Unlock()
}

// durations returns every closed span's duration by name.
func (t *tracer) durations() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End > 0 {
			out[s.Name] = append(out[s.Name], s.End-s.Start)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
