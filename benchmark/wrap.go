package main

import (
	"sync"
	"time"

	"simmr/internal/obs"
	"simmr/internal/sched"
)

// callStats is what a wrapper accumulates: calls, the queue lengths the
// policy was handed, and wall time inside the wrapped calls. Each
// engine owns its wrapper, so no field needs synchronisation.
type callStats struct {
	calls    uint64
	queueLen uint64
	ns       time.Duration
}

func (s *callStats) add(o *callStats) {
	s.calls += o.calls
	s.queueLen += o.queueLen
	s.ns += o.ns
}

// busy is the accumulated time less the clock reads that fell inside
// the timed intervals.
func (s *callStats) busy() time.Duration {
	return max(s.ns-time.Duration(s.calls)*clockCost(), 0)
}

// clockCost is what the wrappers read for a call that does nothing:
// the part of the two clock reads that falls inside the interval,
// measured once on this machine around a policy that returns at once.
// It is the least of several batch means, so that a burst of outside
// load during calibration cannot inflate what every call is docked.
var clockCost = sync.OnceValue(func() time.Duration {
	const batches, n = 32, 4096
	least := time.Duration(1 << 62)
	for b := 0; b < batches; b++ {
		var st callStats
		p := timedPolicy{p: idlePolicy{}, st: &st}
		for i := 0; i < n; i++ {
			p.ChooseNextMapTask(nil)
		}
		least = min(least, st.ns/n)
	}
	return least
})

type idlePolicy struct{}

func (idlePolicy) Name() string                              { return "idle" }
func (idlePolicy) ChooseNextMapTask([]*sched.JobInfo) int    { return -1 }
func (idlePolicy) ChooseNextReduceTask([]*sched.JobInfo) int { return -1 }

// wrapPolicy returns p timed into st. The result implements exactly
// the optional interfaces p does — sched.BatchPolicy, sched.ArrivalAware
// (never both: the engine would feed a batch policy twice) and
// sched.Fingerprinter — so the engine and the result cache take the
// same paths they take for p.
func wrapPolicy(p sched.Policy, st *callStats) sched.Policy {
	base := timedPolicy{p: p, st: st}
	if bp, ok := p.(sched.BatchPolicy); ok {
		return &timedBatch{timedPolicy: base, bp: bp}
	}
	if aa, ok := p.(sched.ArrivalAware); ok {
		return &timedArrival{timedPolicy: base, aa: aa}
	}
	return &base
}

type timedPolicy struct {
	p  sched.Policy
	st *callStats
}

func (t *timedPolicy) Name() string { return t.p.Name() }

func (t *timedPolicy) Fingerprint() (uint64, bool) { return sched.FingerprintOf(t.p) }

// done books one wrapped call that began at start and was handed a
// queue of qlen jobs (0 for hooks, which see no queue).
func (t *timedPolicy) done(start time.Time, qlen int) {
	t.st.ns += time.Since(start)
	t.st.calls++
	t.st.queueLen += uint64(qlen)
}

func (t *timedPolicy) ChooseNextMapTask(q []*sched.JobInfo) int {
	start := time.Now()
	i := t.p.ChooseNextMapTask(q)
	t.done(start, len(q))
	return i
}

func (t *timedPolicy) ChooseNextReduceTask(q []*sched.JobInfo) int {
	start := time.Now()
	i := t.p.ChooseNextReduceTask(q)
	t.done(start, len(q))
	return i
}

type timedArrival struct {
	timedPolicy
	aa sched.ArrivalAware
}

func (t *timedArrival) OnJobArrival(j *sched.JobInfo, totalMapSlots, totalReduceSlots int) {
	start := time.Now()
	t.aa.OnJobArrival(j, totalMapSlots, totalReduceSlots)
	t.done(start, 0)
}

type timedBatch struct {
	timedPolicy
	bp sched.BatchPolicy
}

func (t *timedBatch) OnJobAdmit(j *sched.JobInfo, totalMapSlots, totalReduceSlots int) {
	start := time.Now()
	t.bp.OnJobAdmit(j, totalMapSlots, totalReduceSlots)
	t.done(start, 0)
}

func (t *timedBatch) OnJobDepart(j *sched.JobInfo) {
	start := time.Now()
	t.bp.OnJobDepart(j)
	t.done(start, 0)
}

func (t *timedBatch) OnJobUpdate(j *sched.JobInfo) {
	start := time.Now()
	t.bp.OnJobUpdate(j)
	t.done(start, 0)
}

func (t *timedBatch) ResetQueue() {
	start := time.Now()
	t.bp.ResetQueue()
	t.done(start, 0)
}

func (t *timedBatch) AssignMapSlots(q []*sched.JobInfo, n int) []int {
	start := time.Now()
	got := t.bp.AssignMapSlots(q, n)
	t.done(start, len(q))
	return got
}

func (t *timedBatch) AssignReduceSlots(q []*sched.JobInfo, n int) []int {
	start := time.Now()
	got := t.bp.AssignReduceSlots(q, n)
	t.done(start, len(q))
	return got
}

// wrapSink returns s timed into st, and keeps the run counters the
// engine hands to RunEnd. It forwards queue-depth samples when s takes
// them, as obs.Tee does.
func wrapSink(s obs.Sink, st *callStats) *timedSink {
	ts := &timedSink{s: s, st: st}
	ts.depth, _ = s.(obs.DepthSampler)
	return ts
}

type timedSink struct {
	s        obs.Sink
	depth    obs.DepthSampler
	st       *callStats
	counters obs.Counters
}

func (t *timedSink) Event(ev obs.Event) {
	start := time.Now()
	t.s.Event(ev)
	t.st.ns += time.Since(start)
	t.st.calls++
}

func (t *timedSink) RunEnd(c obs.Counters) {
	t.counters = c
	t.s.RunEnd(c)
}

func (t *timedSink) SampleDepth(now float64, depth int) {
	if t.depth != nil {
		t.depth.SampleDepth(now, depth)
	}
}

// countSink counts events and keeps the run counters; it is the
// cheapest sink that still makes the engine emit.
type countSink struct {
	events   uint64
	counters obs.Counters
}

func (c *countSink) Event(obs.Event)       { c.events++ }
func (c *countSink) RunEnd(n obs.Counters) { c.counters = n }

// statsSet hands one callStats to each engine of a parallel facade call
// and sums them afterwards.
type statsSet struct {
	mu  sync.Mutex
	all []*callStats
}

func (s *statsSet) new() *callStats {
	st := &callStats{}
	s.mu.Lock()
	s.all = append(s.all, st)
	s.mu.Unlock()
	return st
}

func (s *statsSet) sum() callStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total callStats
	for _, st := range s.all {
		total.add(st)
	}
	return total
}
