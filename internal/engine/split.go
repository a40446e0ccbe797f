// Splitting one replay at quiescent instants (DESIGN.md §5, "Quiescent
// instants"). A replay's dependency chain breaks wherever the cluster is
// empty — no job live, nothing pending but the arrivals still to come:
// from such an instant on, the replay is a fresh replay of the trace's
// suffix. So the suffix can run on an engine of its own, at the same time
// as everything before it, and be kept if the engine before it finds the
// cluster quiescent when it gets there.
package engine

import (
	"math"
	"runtime"
	"sync/atomic"

	"simmr/internal/sched"
	"simmr/internal/trace"
)

// minSegmentJobs is the fewest trace positions a split replay gives each
// of its segments on average: a trace of n jobs splits into at most
// n/minSegmentJobs segments, so one shorter than 2 048 jobs replays
// sequentially. Measured in-process on a 2-vCPU box, sparse FIFO
// replays, median of 101: 2 048 jobs replay in 1.38 ms as two segments
// against 1.89 ms on one engine, but 1 024 jobs took 1.07 ms against
// 1.03: there the boundary window spans the whole trace, so the
// segments come out as uneven as the gaps fall.
const minSegmentJobs = 1024

// splitWindow is how many trace positions around its even share a
// segment's first position is looked for in: no more than minSegmentJobs,
// so a boundary stays within half an average segment of its share.
const splitWindow = 1024

// RunSplit is Run for a replay nobody observes, spread over up to
// workers cores (0: GOMAXPROCS) by splitting the trace at quiescent
// instants: the Result is the one Run returns, bit for bit. A replay with
// a sink, a policy with no scheduling index (sched.IndexFor: it may carry
// state from job to job), a trace not in arrival order, or one shorter
// than two segments of minSegmentJobs, runs as Run runs it. The run plan's
// single replay (plan.One) is the only caller: fan-outs keep every core
// busy with cells already. It also returns the segments it ran as (1
// unsplit) and how many of them were cancelled at a busy boundary.
func (p *Pool) RunSplit(cfg Config, tr *trace.Trace, policy sched.Policy, workers int) (res *Result, segments, cancelled int, err error) {
	e, err := p.Get(cfg, tr, policy)
	if err != nil {
		return nil, 0, 0, err
	}
	defer p.Put(e)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var bounds []int
	if parts := min(workers, len(tr.Jobs)/minSegmentJobs); parts >= 2 && e.sink == nil && e.batch != nil {
		if err := e.start(nil); err != nil {
			return nil, 0, 0, err
		}
		if e.inOrder {
			bounds = splitPoints(tr.Jobs, parts)
		}
	}
	if len(bounds) == 0 {
		res, err = e.Run()
		return res, 1, 0, err
	}
	res, accepted, err := e.runSplit(p, bounds)
	return res, len(bounds) + 1, len(bounds) - accepted, err
}

// splitPoints picks the first positions of up to parts−1 segments after
// the first, for a trace in arrival order. Segment i's is looked for
// within splitWindow/2 positions of i·n/parts: the position k with the
// largest arrival gap Arrival[k] − Arrival[k−1] — long gaps are the
// likeliest quiescent instants — nearest i·n/parts among equals. The gap
// must be positive, so that arrival k is the first event of its
// macro-step (a schedule entry wins every tie, DESIGN.md §9). A k that
// some job before it in the window outlives for certain — its arrival
// plus its longest map task reaches Arrival[k] — is skipped. Nothing
// here accepts a boundary: the engine that reaches it does (segment.run).
func splitPoints(jobs []*trace.Job, parts int) []int {
	n := len(jobs)
	var bounds []int
	prev := 0
	for i := 1; i < parts; i++ {
		mid := i * n / parts
		best, bestGap := 0, 0.0
		reach := math.Inf(-1)
		for k := max(prev+1, mid-splitWindow/2); k <= min(n-1, mid+splitWindow/2); k++ {
			before, at := jobs[k-1], jobs[k].Arrival
			reach = max(reach, before.Arrival+before.Template.ProfileRef().Map.Max)
			gap := at - before.Arrival
			if gap <= 0 || reach >= at {
				continue
			}
			if gap > bestGap || (gap == bestGap && distance(k, mid) < distance(best, mid)) {
				best, bestGap = k, gap
			}
		}
		if best > 0 {
			bounds = append(bounds, best)
			prev = best
		}
	}
	return bounds
}

func distance(a, b int) int {
	if a < b {
		return b - a
	}
	return a - b
}

// segment is one engine's share of a split replay: the trace positions
// from its first up to end, the first position of the segment at index
// next (n and len(segs) for the last). When the boundary at end fails,
// the engine takes over the cancelled segment's share: its end and next.
type segment struct {
	e      *Engine
	end    int
	next   int
	cancel atomic.Bool
	done   chan struct{} // closed once the segment's engine has stopped
	err    error
}

// runSplit replays e — started, on a trace in arrival order — as
// segments beginning at the given positions, which increase and each
// have an arrival strictly later than the one before them: one engine of
// p per segment, the first e itself on this goroutine, and each later
// one armed here and run on a goroutine of its own. The accepted segments
// form a chain from the first, each one beginning where the one before
// it stopped; the Result is theirs. accepted counts the boundaries
// between them; the others were cancelled.
func (e *Engine) runSplit(p *Pool, bounds []int) (res *Result, accepted int, err error) {
	n := len(e.tr.Jobs)
	segs := make([]segment, len(bounds)+1)
	for i := range segs {
		s := &segs[i]
		s.e, s.end, s.next, s.done = e, n, i+1, make(chan struct{})
		if i > 0 {
			if s.e = p.take(); s.e == nil {
				s.e = new(Engine)
			}
			s.e.armSuffix(e, bounds[i-1], new(trace.Trace))
		}
		if i < len(bounds) {
			s.end = bounds[i]
		}
	}
	for i := 1; i < len(segs); i++ {
		go func(s *segment) {
			defer close(s.done)
			s.run(segs, n)
		}(&segs[i])
	}
	segs[0].run(segs, n)

	res = &Result{Jobs: e.out}
	s := &segs[0]
	for s.err == nil && s.end < n {
		res.stitch(s.e)
		s = &segs[s.next]
		<-s.done
		accepted++
	}
	if err = s.err; err != nil {
		for i := range segs {
			segs[i].cancel.Store(true)
		}
	}
	res.stitch(s.e)
	res.Makespan = s.e.makespan
	for i := 1; i < len(segs); i++ {
		<-segs[i].done
		p.Put(segs[i].e)
	}
	if err != nil {
		return nil, accepted, err
	}
	e.state = runDone
	return res, accepted, nil
}

// stitch adds the engine of an accepted segment to a split replay's
// Result: its fired events to the total, its peaks to the maximum. Each
// segment starts on an empty cluster, so the segments' rounds are the
// sequential replay's, slot for slot.
func (res *Result) stitch(e *Engine) {
	res.Events += e.q.Fired()
	res.PeakMapSlots = max(res.PeakMapSlots, e.peakMap)
	res.PeakReduceSlots = max(res.PeakReduceSlots, e.peakReduce)
}

// armSuffix arms e to replay positions k… of first's replay — started,
// on a trace in arrival order — as a replay of its own: its trace is the
// suffix, written to view and checked by first's Reset and not again; its
// schedule is first's from entry k on, which Preload only reads; its
// outcomes go to first's array from position k on, bound and cleared
// when first started, so that no engine clears what another may be
// writing.
func (e *Engine) armSuffix(first *Engine, k int, view *trace.Trace) {
	*view = trace.Trace{Name: first.tr.Name, Jobs: first.tr.Jobs[k:]}
	e.rearm(first.cfg, view, first.policy, first.indexOf == nil, first.idBase+k)
	e.state = runStarted
	e.q.Preload(evJobArrival, first.arrivals[k:])
	e.out = first.out[k:]
}

// quiescent reports whether e is at a quiescent instant: no job live
// and nothing pending but the arrivals still to come.
func (e *Engine) quiescent() bool { return e.live == 0 && e.q.Len() == e.q.Preloaded() }

// run steps the segment's engine until the replay ends, a step fails,
// the segment is cancelled, or the arrival at s.end is next and the
// cluster is quiescent: no job live and nothing pending but the schedule,
// so the engine's state is a fresh one's on the trace from s.end on —
// the next segment's. If that arrival is due while the cluster is busy,
// the boundary fails: the segment replaying from it is cancelled and
// waited for, and this engine takes over its share.
func (s *segment) run(segs []segment, n int) {
	e := s.e
	for e.remaining > 0 && !s.cancel.Load() {
		if s.end < n && e.q.Preloaded() == n-s.end {
			if e.quiescent() {
				return
			}
			if e.q.ScheduleNext() {
				o := &segs[s.next]
				o.cancel.Store(true)
				<-o.done
				s.end, s.next = o.end, o.next
				continue
			}
		}
		if s.err = e.step(); s.err != nil {
			return
		}
	}
}
