// Metrics snapshot sink: plain counters behind a mutex so another
// goroutine can read a consistent snapshot while the simulation is
// still running.

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
	// Counters holds the run-level totals; they accumulate per RunEnd.
	Counters Counters
	// RunsFinished counts RunEnd deliveries.
	RunsFinished int
}

// MetricsSink tallies the event stream into counters. Unlike other
// sinks it IS safe for concurrent use: Event/RunEnd may race with
// Snapshot readers, and one MetricsSink may be shared across engines to
// aggregate a whole sweep — at the cost of a mutex per delivered block,
// which is why sharing one is a choice, not the default. A Snapshot
// taken while an engine runs trails it by at most the engine's
// undelivered block (DESIGN.md §8).
type MetricsSink struct {
	mu sync.Mutex
	s  MetricsSnapshot
}

// NewMetricsSink returns a zeroed metrics sink.
func NewMetricsSink() *MetricsSink { return &MetricsSink{} }

// Event tallies one engine event: the one-element case of Events.
func (m *MetricsSink) Event(ev Event) { m.Events((&[1]Event{ev})[:]) }

// Events tallies a block of engine events (BatchSink): kinds are counted
// before the lock is taken, and the block's last event carries its
// latest time, since an engine delivers events in time order.
func (m *MetricsSink) Events(evs []Event) {
	if len(evs) == 0 {
		return
	}
	var byKind [KindCount]uint64
	for i := range evs {
		byKind[evs[i].Kind]++
	}
	last := evs[len(evs)-1].Time
	m.mu.Lock()
	s := &m.s
	for k, n := range byKind {
		s.ByKind[k] += n
	}
	s.SimTime = max(s.SimTime, last)
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
	t.Jobs += c.Jobs
	if c.HeapHighWater > t.HeapHighWater {
		t.HeapHighWater = c.HeapHighWater
	}
	if c.Makespan > t.Makespan {
		t.Makespan = c.Makespan
	}
	m.s.RunsFinished++
	m.mu.Unlock()
}

// Snapshot returns a consistent copy of the counters.
func (m *MetricsSink) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s
}
