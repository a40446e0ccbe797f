// Package telemetry is SimMR's sweep-wide metrics layer: a registry of
// counters, max-gauges, and fixed-bucket histograms whose hot path is
// lock-free. Every update is an atomic add (or CAS) on the metric's one
// set of cells, and a scrape (WritePrometheus) or a Value() call reads
// them directly. Writers are few and write rarely: an engine sink
// writes once per block of events (Tally), the cold paths once per
// replay, lookup or stage.
//
// The contract mirrors DESIGN.md §10:
//
//   - Registration happens up front (NewSimMetrics builds the full SimMR
//     metric set); updates are wait-free atomic adds; scrapes see a
//     weakly consistent but monotonic view (each cell is read
//     atomically, cells may be skewed by in-flight updates).
//   - Disabled means nil. Code paths guard instrumentation with a
//     single `if tel != nil`; no registry, no cost — the bare case of
//     TestReplayAllocBudget is the no-telemetry replay path.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry owns the registered metric families, in registration order
// (which is exposition order).
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// metricKind tags a family for TYPE lines and sample layout.
type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled instance inside a family. A scrape reads it
// through the one field its family kind uses: count for a counter, fn
// for a gauge — a metric's own Value, or a function over state kept
// elsewhere — and h for a histogram.
type child struct {
	labels string // pre-rendered `k="v"` pairs, "" for unlabeled
	count  func() uint64
	fn     func() float64
	h      *Histogram
}

// family is one exposition unit: a metric name with HELP/TYPE emitted
// once and one sample set per child.
type family struct {
	name, help string
	kind       metricKind
	children   []child
}

// register appends a family; registration is cheap and mutex-guarded —
// it happens at setup, never on the hot path.
func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.families {
		if have.name == f.name {
			panic(fmt.Sprintf("telemetry: duplicate metric family %q", f.name))
		}
	}
	r.families = append(r.families, f)
}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.NewFuncCounter(name, help, c.Value)
	return c
}

// NewCounterVec registers one counter per label value under a shared
// family name; the returned slice is in `values` order.
func (r *Registry) NewCounterVec(name, help, label string, values []string) []*Counter {
	out := make([]*Counter, len(values))
	for i := range out {
		out[i] = &Counter{}
	}
	r.NewFuncCounterVec(name, help, label, values, func(i int) uint64 { return out[i].Value() })
	return out
}

// NewFuncCounter registers a counter whose total is read at scrape time
// by fn — the counter form of NewFuncGauge, for counts already kept
// elsewhere (a cache's own Stats). fn must be safe for concurrent calls,
// fast, and never decrease.
func (r *Registry) NewFuncCounter(name, help string, fn func() uint64) {
	r.register(&family{name: name, help: help, kind: counterKind,
		children: []child{{count: fn}}})
}

// NewFuncCounterVec registers one scrape-evaluated counter per label
// value under a shared family name; fn receives the value's index in
// `values` order.
func (r *Registry) NewFuncCounterVec(name, help, label string, values []string, fn func(i int) uint64) {
	f := &family{name: name, help: help, kind: counterKind}
	for i, v := range values {
		f.children = append(f.children, child{
			labels: fmt.Sprintf("%s=%q", label, v),
			count:  func() uint64 { return fn(i) },
		})
	}
	r.register(f)
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the counter's total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// MaxGauge is a gauge that only rises — high-water marks (peak
// simulated time, peak queue population) rather than sums.
type MaxGauge struct{ bits atomic.Uint64 } // float64 bits

// NewMaxGauge registers a max-merged gauge.
func (r *Registry) NewMaxGauge(name, help string) *MaxGauge {
	g := &MaxGauge{}
	r.NewFuncGauge(name, help, g.Value)
	return g
}

// NewMaxGaugeLabeled registers a max-merged gauge carrying constant
// pre-rendered labels — the Prometheus `*_info` idiom (a gauge fixed at
// 1 whose labels carry the payload). Labels render in argument order.
func (r *Registry) NewMaxGaugeLabeled(name, help string, labels [][2]string) *MaxGauge {
	g := &MaxGauge{}
	parts := make([]string, len(labels))
	for i, kv := range labels {
		parts[i] = fmt.Sprintf("%s=%q", kv[0], kv[1])
	}
	r.register(&family{name: name, help: help, kind: gaugeKind,
		children: []child{{labels: strings.Join(parts, ","), fn: g.Value}}})
	return g
}

// NewFuncGauge registers a gauge whose value is computed at scrape
// time by fn — the shape for state that already lives elsewhere under
// its own synchronization (the run registry's live count) and would be
// stale or double-tracked as a written gauge. fn must be safe for
// concurrent calls and fast: it runs on every scrape.
func (r *Registry) NewFuncGauge(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: gaugeKind,
		children: []child{{fn: fn}}})
}

// NewFuncGaugeVec registers one scrape-evaluated gauge per label value
// under a shared family name; fn receives the value's index in
// `values` order.
func (r *Registry) NewFuncGaugeVec(name, help, label string, values []string, fn func(i int) float64) {
	f := &family{name: name, help: help, kind: gaugeKind}
	for i, v := range values {
		f.children = append(f.children, child{
			labels: fmt.Sprintf("%s=%q", label, v),
			fn:     func() float64 { return fn(i) },
		})
	}
	r.register(f)
}

// Observe raises the gauge to v if v is larger, with a lock-free CAS
// loop.
func (g *MaxGauge) Observe(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the largest value observed (0 before any).
func (g *MaxGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Bounds are inclusive upper
// bounds in ascending order (Prometheus `le` semantics); the overflow
// (+Inf) bucket is implicit. Its slots hold the bucket counts, then the
// sum (float64 bits), then the observation count.
type Histogram struct {
	bounds []float64
	slots  []uint64
	sumOff int // offset of the sum cell
	cntOff int // offset of the count cell
}

// NewHistogram registers an unlabeled histogram over the given bounds.
// Bounds must be ascending and non-empty.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(&family{name: name, help: help, kind: histogramKind,
		children: []child{{h: h}}})
	return h
}

// NewHistogramVec registers one histogram per label value under a
// shared family name; the returned slice is in `values` order.
func (r *Registry) NewHistogramVec(name, help, label string, values []string, bounds []float64) []*Histogram {
	f := &family{name: name, help: help, kind: histogramKind}
	out := make([]*Histogram, len(values))
	for i, v := range values {
		out[i] = newHistogram(bounds)
		f.children = append(f.children, child{
			labels: fmt.Sprintf("%s=%q", label, v),
			h:      out[i],
		})
	}
	r.register(f)
	return out
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must be ascending")
	}
	nb := len(bounds) + 1 // + overflow bucket
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		slots:  make([]uint64, nb+2), // + sum + count
		sumOff: nb,
		cntOff: nb + 1,
	}
}

// bucket returns the index of the bucket v falls in.
func (h *Histogram) bucket(v float64) int {
	i := 0
	// Linear scan: bucket counts are small (≤ ~16) and the branch
	// predictor learns the distribution; a binary search's unpredictable
	// branches are slower at this size.
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records v: one bucket increment, one count increment, and a
// CAS float add to the sum — all lock-free.
func (h *Histogram) Observe(v float64) {
	atomic.AddUint64(&h.slots[h.bucket(v)], 1)
	atomic.AddUint64(&h.slots[h.cntOff], 1)
	h.addSum(v)
}

// addSum adds v to the sum cell with a CAS loop.
func (h *Histogram) addSum(v float64) {
	sum := &h.slots[h.sumOff]
	for {
		old := atomic.LoadUint64(sum)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(sum, old, next) {
			return
		}
	}
}

// Tally is a single-writer accumulator in front of a Histogram, for a
// writer that observes in bursts (an engine sink handed a block of
// events): Observe touches plain memory only, and Flush publishes the
// burst with one atomic add per bucket touched, one for the count and
// one CAS for the sum, where Histogram.Observe pays three atomics per
// value.
//
// The sum is carried forward from the histogram's value at the burst's
// first observation, one addition per value in observation order, so a
// flushed burst leaves the histogram bit-for-bit what per-value Observe
// calls would have — the exposition does not depend on how a stream
// was cut into blocks. That holds while no other writer adds to the
// sum during the burst; when one does (two sinks running at once)
// Flush adds the burst's total on top of theirs, and the result depends
// on the interleaving exactly as interleaved Observe calls do.
type Tally struct {
	h      *Histogram
	counts []uint32 // pending observations per bucket
	n      uint64   // pending observations
	from   uint64   // bits of the histogram's sum the burst started from
	sum    float64  // from + every pending value, in order
}

// NewTally returns an empty tally writing to h.
func (h *Histogram) NewTally() Tally {
	return Tally{h: h, counts: make([]uint32, len(h.bounds)+1)}
}

// Observe records v in the tally; nothing is visible to a scrape
// until Flush.
func (t *Tally) Observe(v float64) {
	if t.n == 0 {
		t.from = atomic.LoadUint64(&t.h.slots[t.h.sumOff])
		t.sum = math.Float64frombits(t.from)
	}
	t.counts[t.h.bucket(v)]++
	t.n++
	t.sum += v
}

// Flush publishes the pending observations and empties the tally.
func (t *Tally) Flush() {
	if t.n == 0 {
		return
	}
	h := t.h
	for i, c := range t.counts {
		if c != 0 {
			atomic.AddUint64(&h.slots[i], uint64(c))
			t.counts[i] = 0
		}
	}
	atomic.AddUint64(&h.slots[h.cntOff], t.n)
	t.n = 0
	if !atomic.CompareAndSwapUint64(&h.slots[h.sumOff], t.from, math.Float64bits(t.sum)) {
		h.addSum(t.sum - math.Float64frombits(t.from))
	}
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	// Buckets holds non-cumulative per-bucket counts; the last entry is
	// the overflow (+Inf) bucket.
	Buckets []uint64
	Sum     float64
	Count   uint64
}

// Snapshot reads the histogram's cells.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]uint64, len(h.bounds)+1)}
	for i := range s.Buckets {
		s.Buckets[i] = atomic.LoadUint64(&h.slots[i])
	}
	s.Sum = math.Float64frombits(atomic.LoadUint64(&h.slots[h.sumOff]))
	s.Count = atomic.LoadUint64(&h.slots[h.cntOff])
	return s
}
