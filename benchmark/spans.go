package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (nothing inside the program under test is instrumented).
type span struct {
	name       string
	start, end time.Duration // since tracer.t0
	parent     int           // index into tracer.spans, -1 for a root
	op         int           // shared by every span of one operation
	args       map[string]any
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: do still calls f, nothing is recorded. It is used
// from the harness goroutine only; per-event policy and sink calls are
// not spans, they are aggregated by the wrappers and attached to the
// enclosing span as args.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span named layer.Function and returns the span's
// index (-1 untraced) for annotate.
func (t *tracer) do(name string, f func()) int {
	if t == nil {
		f()
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, op: t.op})
	t.stack = append(t.stack, id)
	t.spans[id].start = time.Since(t.t0)
	f()
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	return id
}

// annotate attaches an aggregate (call count, total ns, ...) to a span.
func (t *tracer) annotate(id int, key string, v any) {
	if t == nil || id < 0 {
		return
	}
	if t.spans[id].args == nil {
		t.spans[id].args = map[string]any{}
	}
	t.spans[id].args[key] = v
}

// nextOp starts a new operation id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// spanTotals is one span name's count, total and self time; self is
// the duration minus the part covered by child spans.
type spanTotals struct {
	name        string
	count       int
	total, self time.Duration
}

func (t *tracer) totals() []spanTotals {
	if t == nil {
		return nil
	}
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*spanTotals{}
	for i, s := range t.spans {
		st := byName[s.name]
		if st == nil {
			st = &spanTotals{name: s.name}
			byName[s.name] = st
		}
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - covered[i]
	}
	out := make([]spanTotals, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total > out[j].total })
	return out
}

// write stores the spans in Chrome trace-event format (complete "X"
// events, microsecond timestamps) for chrome://tracing or Perfetto.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i, "parent": s.parent, "op": s.op}
		for k, v := range s.args {
			args[k] = v
		}
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
