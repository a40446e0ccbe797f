// Package telemetry is SimMR's sweep-wide metrics layer: a registry of
// counters, max-gauges, and fixed-bucket histograms whose hot path is
// lock-free. A Registry is sharded — one cache-line-padded shard per
// concurrent writer (sized to the internal/parallel worker ceiling,
// GOMAXPROCS) — and every update is a plain atomic add to the writer's
// own shard. Shards are merged only when somebody looks: a Prometheus
// scrape (WritePrometheus) or a Value() call. A shared sweep-wide
// registry therefore costs no cross-core synchronization per event, only
// per scrape.
//
// The contract mirrors DESIGN.md §10:
//
//   - Registration happens up front (NewSimMetrics builds the full SimMR
//     metric set); updates are wait-free atomic adds; scrapes see a
//     weakly consistent but monotonic view (each slot is read
//     atomically, slots may be skewed by in-flight updates).
//   - Writers pick a shard once (Registry.NextShard, round-robin) and
//     keep it: a per-engine sink holds its shard for its lifetime, so
//     steady-state updates never touch a shared cache line.
//   - Disabled means nil. Code paths guard instrumentation with a
//     single `if tel != nil`; no registry, no cost — the bare case of
//     TestReplayAllocBudget is the no-telemetry replay path.
package telemetry

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// cacheLine is the assumed cache-line size; shard cells are padded to it
// so two writers on different shards never false-share.
const cacheLine = 64

// Registry owns a fixed shard count and the registered metric families,
// in registration order (which is exposition order).
type Registry struct {
	shards int
	next   atomic.Uint32

	mu       sync.Mutex
	families []*family
}

// NewRegistry builds a registry with the given shard count; shards <= 0
// means one per available CPU (runtime.GOMAXPROCS), the ceiling of the
// internal/parallel worker pool.
func NewRegistry(shards int) *Registry {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return &Registry{shards: shards}
}

// Shards returns the shard count.
func (r *Registry) Shards() int { return r.shards }

// NextShard assigns a shard round-robin. Writers call it once (per
// engine sink, per worker) and reuse the result; two writers that land
// on the same shard stay correct — updates are atomic — they merely
// share a cache line.
func (r *Registry) NextShard() int {
	return int(r.next.Add(1)-1) % r.shards
}

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

// child is one labeled instance inside a family; exactly one of the
// metric pointers (or fn, for scrape-evaluated gauges) is set,
// matching the family kind.
type child struct {
	labels string // pre-rendered `k="v"` pairs, "" for unlabeled
	ctr    *Counter
	mg     *MaxGauge
	h      *Histogram
	fn     func() float64
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

// padCell is one shard's counter cell, padded to a cache line.
type padCell struct {
	v uint64
	_ [cacheLine - 8]byte
}

// Counter is a sharded monotonically increasing counter.
type Counter struct {
	cells []padCell
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{cells: make([]padCell, r.shards)}
	r.register(&family{name: name, help: help, kind: counterKind,
		children: []child{{ctr: c}}})
	return c
}

// NewCounterVec registers one counter per label value under a shared
// family name; the returned slice is in `values` order.
func (r *Registry) NewCounterVec(name, help, label string, values []string) []*Counter {
	f := &family{name: name, help: help, kind: counterKind}
	out := make([]*Counter, len(values))
	for i, v := range values {
		out[i] = &Counter{cells: make([]padCell, r.shards)}
		f.children = append(f.children, child{
			labels: fmt.Sprintf("%s=%q", label, v),
			ctr:    out[i],
		})
	}
	r.register(f)
	return out
}

// Inc adds one to the counter on the given shard.
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Add adds n on the given shard.
func (c *Counter) Add(shard int, n uint64) {
	atomic.AddUint64(&c.cells[shard].v, n)
}

// Value merges all shards.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += atomic.LoadUint64(&c.cells[i].v)
	}
	return sum
}

// MaxGauge is a sharded gauge merged by maximum — high-water marks
// (peak simulated time, peak queue population) rather than sums.
type MaxGauge struct {
	cells []padCell // float64 bits
}

// NewMaxGauge registers a max-merged gauge.
func (r *Registry) NewMaxGauge(name, help string) *MaxGauge {
	g := &MaxGauge{cells: make([]padCell, r.shards)}
	r.register(&family{name: name, help: help, kind: gaugeKind,
		children: []child{{mg: g}}})
	return g
}

// NewMaxGaugeLabeled registers a max-merged gauge carrying constant
// pre-rendered labels — the Prometheus `*_info` idiom (a gauge fixed at
// 1 whose labels carry the payload). Labels render in argument order.
func (r *Registry) NewMaxGaugeLabeled(name, help string, labels [][2]string) *MaxGauge {
	g := &MaxGauge{cells: make([]padCell, r.shards)}
	parts := make([]string, len(labels))
	for i, kv := range labels {
		parts[i] = fmt.Sprintf("%s=%q", kv[0], kv[1])
	}
	r.register(&family{name: name, help: help, kind: gaugeKind,
		children: []child{{labels: strings.Join(parts, ","), mg: g}}})
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
		i := i
		f.children = append(f.children, child{
			labels: fmt.Sprintf("%s=%q", label, v),
			fn:     func() float64 { return fn(i) },
		})
	}
	r.register(f)
}

// Observe raises the shard's cell to v if v is larger. The CAS loop is
// lock-free and, because each writer owns its shard, effectively
// uncontended — retries only happen when two writers share a shard.
func (g *MaxGauge) Observe(shard int, v float64) {
	cell := &g.cells[shard].v
	for {
		old := atomic.LoadUint64(cell)
		if math.Float64frombits(old) >= v {
			return
		}
		if atomic.CompareAndSwapUint64(cell, old, math.Float64bits(v)) {
			return
		}
	}
}

// Value merges all shards by maximum.
func (g *MaxGauge) Value() float64 {
	var max float64
	for i := range g.cells {
		if v := math.Float64frombits(atomic.LoadUint64(&g.cells[i].v)); v > max {
			max = v
		}
	}
	return max
}

// Histogram is a sharded fixed-bucket histogram. Bounds are inclusive
// upper bounds in ascending order (Prometheus `le` semantics); the
// overflow (+Inf) bucket is implicit. Each shard's region holds the
// bucket counts, the observation count, and the sum (float64 bits),
// padded to a cache-line multiple so shards never false-share.
type Histogram struct {
	bounds []float64
	slots  []uint64
	stride int // uint64 slots per shard region
	sumOff int // offset of the sum cell within a region
	cntOff int // offset of the count cell within a region
}

// NewHistogram registers an unlabeled histogram over the given bounds.
// Bounds must be ascending and non-empty.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(r.shards, bounds)
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
		out[i] = newHistogram(r.shards, bounds)
		f.children = append(f.children, child{
			labels: fmt.Sprintf("%s=%q", label, v),
			h:      out[i],
		})
	}
	r.register(f)
	return out
}

func newHistogram(shards int, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must be ascending")
	}
	nb := len(bounds) + 1 // + overflow bucket
	stride := nb + 2      // + sum + count
	// Round the region up to a whole number of cache lines.
	const perLine = cacheLine / 8
	stride = (stride + perLine - 1) / perLine * perLine
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		slots:  make([]uint64, shards*stride),
		stride: stride,
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

// Observe records v on the given shard: one bucket increment, one count
// increment, and a CAS float add to the sum — all lock-free, all inside
// the shard's own cache lines.
func (h *Histogram) Observe(shard int, v float64) {
	base := shard * h.stride
	atomic.AddUint64(&h.slots[base+h.bucket(v)], 1)
	atomic.AddUint64(&h.slots[base+h.cntOff], 1)
	sum := &h.slots[base+h.sumOff]
	for {
		old := atomic.LoadUint64(sum)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(sum, old, next) {
			return
		}
	}
}

// Tally is a single-writer accumulator in front of one shard of a
// Histogram, for a writer that observes in bursts (an engine sink
// handed a block of events): Observe touches plain memory only, and
// Flush publishes the burst with one atomic add per bucket touched, one
// for the count and one CAS for the sum, where Histogram.Observe pays
// three atomics per value.
//
// The sum is carried forward from the shard's value at the burst's
// first observation, one addition per value in observation order, so a
// flushed burst leaves the shard bit-for-bit what per-value Observe
// calls would have — the exposition does not depend on how a stream
// was cut into blocks. That holds while no other writer adds to the
// shard's sum during the burst; when one does (two sinks sharing a
// shard, running at once) Flush adds the burst's total on top of
// theirs, and the result depends on the interleaving exactly as
// interleaved Observe calls do.
type Tally struct {
	h      *Histogram
	base   int      // the shard's first slot
	counts []uint32 // pending observations per bucket
	n      uint64   // pending observations
	from   uint64   // bits of the shard's sum the burst started from
	sum    float64  // from + every pending value, in order
}

// NewTally returns an empty tally writing to the given shard of h.
func (h *Histogram) NewTally(shard int) Tally {
	return Tally{h: h, base: shard * h.stride, counts: make([]uint32, len(h.bounds)+1)}
}

// Observe records v in the tally; nothing is visible to a scrape
// until Flush.
func (t *Tally) Observe(v float64) {
	if t.n == 0 {
		t.from = atomic.LoadUint64(&t.h.slots[t.base+t.h.sumOff])
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
	slots := t.h.slots[t.base : t.base+t.h.stride]
	for i, c := range t.counts {
		if c != 0 {
			atomic.AddUint64(&slots[i], uint64(c))
			t.counts[i] = 0
		}
	}
	atomic.AddUint64(&slots[t.h.cntOff], t.n)
	t.n = 0
	sum := &slots[t.h.sumOff]
	if atomic.CompareAndSwapUint64(sum, t.from, math.Float64bits(t.sum)) {
		return
	}
	burst := t.sum - math.Float64frombits(t.from)
	for {
		old := atomic.LoadUint64(sum)
		next := math.Float64bits(math.Float64frombits(old) + burst)
		if atomic.CompareAndSwapUint64(sum, old, next) {
			return
		}
	}
}

// HistogramSnapshot is a merged point-in-time view of a histogram.
type HistogramSnapshot struct {
	// Buckets holds non-cumulative per-bucket counts; the last entry is
	// the overflow (+Inf) bucket.
	Buckets []uint64
	Sum     float64
	Count   uint64
}

// Snapshot merges all shards.
func (h *Histogram) Snapshot() HistogramSnapshot {
	nb := len(h.bounds) + 1
	s := HistogramSnapshot{Buckets: make([]uint64, nb)}
	for shard := 0; shard*h.stride < len(h.slots); shard++ {
		base := shard * h.stride
		for i := 0; i < nb; i++ {
			s.Buckets[i] += atomic.LoadUint64(&h.slots[base+i])
		}
		s.Sum += math.Float64frombits(atomic.LoadUint64(&h.slots[base+h.sumOff]))
		s.Count += atomic.LoadUint64(&h.slots[base+h.cntOff])
	}
	return s
}

// Bounds returns the bucket upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }
