// Metrics snapshot sink: plain counters behind a mutex so an HTTP
// debug endpoint (expvar / pprof, see cmd/simmr --debug-addr) can read
// a consistent snapshot while the simulation is still running.

package obs

import "sync"

// MetricsSnapshot is a point-in-time copy of a MetricsSink's counters.
// ByKind is indexed by Kind.
type MetricsSnapshot struct {
	// Observed counts events delivered to the sink so far (live during
	// the run; Counters.Events is only final at RunEnd).
	Observed uint64
	ByKind   [KindCount]uint64
	// SimTime is the simulated time of the latest observed event.
	SimTime float64
	// Counters holds the run-level totals; they accumulate per RunEnd
	// and are complete once Done is true.
	Counters Counters
	// RunsFinished counts RunEnd deliveries; RunsExpected is the target
	// set via ExpectRuns (0 means "a single run" for compatibility).
	RunsFinished int
	RunsExpected int
	// Done reports that every expected run has finished: RunsFinished
	// has reached RunsExpected (or one run, when no expectation was
	// set). A sink shared across a sweep no longer reports done after
	// the first run.
	Done bool
}

// MetricsSink tallies the event stream into counters. Unlike other
// sinks it IS safe for concurrent use: Event/RunEnd may race with
// Snapshot readers (the expvar endpoint), and one MetricsSink may be
// shared across engines to aggregate a whole sweep — at the cost of a
// mutex per delivered block, which is why sharing one is a choice, not
// the default. A Snapshot taken while an engine runs trails it by at
// most the engine's undelivered block (DESIGN.md §8).
type MetricsSink struct {
	mu sync.Mutex
	s  MetricsSnapshot
}

// NewMetricsSink returns a zeroed metrics sink.
func NewMetricsSink() *MetricsSink { return &MetricsSink{} }

// ExpectRuns adds n to the number of RunEnd deliveries after which the
// sink reports Done. A sink shared across a sweep must be told the
// sweep size (e.g. ExpectRuns(len(cells))) or its snapshot would report
// a live sweep as done after the first cell finished. Without an
// expectation the first RunEnd still sets Done, preserving the
// single-run behavior.
func (m *MetricsSink) ExpectRuns(n int) {
	m.mu.Lock()
	m.s.RunsExpected += n
	m.s.Done = m.s.RunsExpected > 0 && m.s.RunsFinished >= m.s.RunsExpected
	m.mu.Unlock()
}

// Event tallies one engine event: the one-element case of Events.
func (m *MetricsSink) Event(ev Event) { m.Events((&[1]Event{ev})[:]) }

// Events tallies a block of engine events under one lock (BatchSink).
func (m *MetricsSink) Events(evs []Event) {
	m.mu.Lock()
	s := &m.s
	for i := range evs {
		ev := &evs[i]
		s.ByKind[ev.Kind]++
		if ev.Time > s.SimTime {
			s.SimTime = ev.Time
		}
	}
	s.Observed += uint64(len(evs))
	m.mu.Unlock()
}

// RunEnd stores the final run counters. When the sink aggregates
// several engines, the scalar totals accumulate and HeapHighWater
// keeps the maximum across runs.
func (m *MetricsSink) RunEnd(c Counters) {
	m.mu.Lock()
	t := &m.s.Counters
	t.Events += c.Events
	t.Preemptions += c.Preemptions
	t.FillerPatches += c.FillerPatches
	t.MapSlotAllocs += c.MapSlotAllocs
	t.ReduceSlotAllocs += c.ReduceSlotAllocs
	t.Jobs += c.Jobs
	if c.HeapHighWater > t.HeapHighWater {
		t.HeapHighWater = c.HeapHighWater
	}
	if c.Makespan > t.Makespan {
		t.Makespan = c.Makespan
	}
	m.s.RunsFinished++
	// Done tracks expected-vs-finished runs: with no expectation set the
	// first RunEnd completes "the run"; with ExpectRuns(n) the sink is
	// done only once all n runs delivered.
	m.s.Done = m.s.RunsFinished >= m.s.RunsExpected || m.s.RunsExpected <= 0
	m.mu.Unlock()
}

// Snapshot returns a consistent copy of the counters.
func (m *MetricsSink) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s
}

// ExpvarValue renders the snapshot as a plain map for
// expvar.Publish(name, expvar.Func(sink.ExpvarValue)) — no expvar
// import here, so non-HTTP consumers don't pull in net/http side
// effects.
func (m *MetricsSink) ExpvarValue() any {
	s := m.Snapshot()
	byKind := make(map[string]uint64, KindCount)
	for k := Kind(0); k < KindCount; k++ {
		if s.ByKind[k] > 0 {
			byKind[k.String()] = s.ByKind[k]
		}
	}
	return map[string]any{
		"observed_events":    s.Observed,
		"by_kind":            byKind,
		"sim_time_s":         s.SimTime,
		"done":               s.Done,
		"runs_expected":      s.RunsExpected,
		"runs_finished":      s.RunsFinished,
		"engine_events":      s.Counters.Events,
		"heap_high_water":    s.Counters.HeapHighWater,
		"preemptions":        s.Counters.Preemptions,
		"filler_patches":     s.Counters.FillerPatches,
		"map_slot_allocs":    s.Counters.MapSlotAllocs,
		"reduce_slot_allocs": s.Counters.ReduceSlotAllocs,
		"jobs":               s.Counters.Jobs,
		"makespan_s":         s.Counters.Makespan,
	}
}
