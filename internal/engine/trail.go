// Following a replay's trail (DESIGN.md §5, "Stretches below the peak").
// A replay's quiescent arrivals (split.go) cut it into stretches, each a
// fresh replay of its own jobs. A replay of the same trace on a smaller
// cluster that reaches a stretch's first arrival quiescent as well, on a
// cluster that holds the stretch's peaks, repeats that stretch round for
// round — Answers' rule, applied to one stretch at a time — and so may
// copy its outcomes instead of replaying it.
package engine

import (
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// Trail is what a replay leaves for replays of the same trace on other
// clusters (Pool.RunTrail, Pool.FoldTrail): its Result, and a mark at
// each arrival it found the cluster quiescent at. It is not written once
// returned, so any number of replays may follow it at once.
type Trail struct {
	cfg   Config
	tr    *trace.Trace
	res   Result
	marks []mark
}

// mark is one quiescent arrival of a trail's replay and the stretch that
// begins there, up to the next mark or the end of the replay.
type mark struct {
	pos        int     // the arrival's trace position
	events     uint64  // events fired before it
	peakMap    int     // most map slots held at once in the stretch
	peakReduce int     // most reduce slots held at once in the stretch
	makespan   float64 // the latest departure by the stretch's end
}

// RunTrail is Run for a replay that others will follow: it also returns
// its Trail, which holds the Result, or nil when the replay cannot leave
// one (trailable).
func (p *Pool) RunTrail(cfg Config, tr *trace.Trace, policy sched.Policy) (*Result, *Trail, error) {
	e, err := p.Get(cfg, tr, policy)
	if err != nil {
		return nil, nil, err
	}
	defer p.Put(e)
	if err := e.start(nil); err != nil {
		return nil, nil, err
	}
	if !e.trailable() {
		res, err := e.Run()
		return res, nil, err
	}
	// A sparse trace, jobs a minute apart, empties the cluster about once
	// every 19 jobs; start with room for one mark per 16.
	t := &Trail{cfg: cfg, tr: tr, marks: make([]mark, 0, 1+len(tr.Jobs)/16)}
	if err := e.record(t); err != nil {
		return nil, nil, err
	}
	e.state = runDone
	t.res = Result{Jobs: e.out, Events: e.q.Fired(), Makespan: e.makespan, PeakMapSlots: e.peakMap, PeakReduceSlots: e.peakReduce}
	return &t.res, t, nil
}

// FoldTrail is Fold for a replay that follows t, a trail of the same
// trace under a config that differs in slot counts only, and a policy
// that decides as t's did: it copies every stretch of t it may. Any other
// replay — nil t, a sink, or one that is not trailable — folds as Fold
// does. fn is also handed how many job outcomes were copied from t.
func (p *Pool) FoldTrail(cfg Config, tr *trace.Trace, policy sched.Policy, t *Trail, fn func(res *Result, copied int)) error {
	e, err := p.Get(cfg, tr, policy)
	if err != nil {
		return err
	}
	res := &e.scratch
	var copied int
	if err = e.start(res.Jobs[:0]); err == nil {
		if t.admits(e) {
			copied, err = e.follow(p, t, res)
		} else {
			err = e.RunInto(res)
		}
	}
	if err == nil {
		fn(res, copied)
	}
	clear(res.Jobs)
	res.Jobs = res.Jobs[:0]
	p.Put(e)
	return err
}

// trailable reports whether e, started, may leave or follow a trail: it
// replays a trace in arrival order with no sink, under a policy on a
// scheduling index, which is empty at a quiescent instant, and that is
// not handed the slot totals (MinEDF), with PreemptMapTasks off — the
// conditions of a split replay and of Answers together.
func (e *Engine) trailable() bool {
	_, aware := e.policy.(sched.ArrivalAware)
	return e.inOrder && e.sink == nil && e.batch != nil && !aware && !e.cfg.PreemptMapTasks
}

// admits reports whether e, started, may follow t: it is trailable, on
// t's trace, under a config that differs from t's in slot counts only.
func (t *Trail) admits(e *Engine) bool {
	if t == nil || t.tr != e.tr {
		return false
	}
	a := t.cfg
	a.MapSlots, a.ReduceSlots = e.cfg.MapSlots, e.cfg.ReduceSlots
	return a == e.cfg && e.trailable()
}

// answers reports whether a cluster of cfg's slot counts repeats the
// stretch at mark i round for round: Answers' rule for its peaks.
func (t *Trail) answers(i int, cfg Config) bool {
	m := &t.marks[i]
	return holds(m.peakMap, t.cfg.MapSlots, cfg.MapSlots) && holds(m.peakReduce, t.cfg.ReduceSlots, cfg.ReduceSlots)
}

// record steps e, started, to the end of its replay, marking in t each
// arrival it reaches quiescent and what each stretch held at most. Only
// a step's closing round takes slots, so what is held after a step is
// the most the step held.
func (e *Engine) record(t *Trail) error {
	n := len(e.tr.Jobs)
	for e.remaining > 0 {
		if e.quiescent() {
			if k := len(t.marks); k > 0 {
				t.marks[k-1].makespan = e.makespan
			}
			t.marks = append(t.marks, mark{pos: n - e.q.Preloaded(), events: e.q.Fired()})
		}
		if err := e.step(); err != nil {
			return err
		}
		m := &t.marks[len(t.marks)-1]
		m.peakMap = max(m.peakMap, e.cfg.MapSlots-e.freeMap)
		m.peakReduce = max(m.peakReduce, e.cfg.ReduceSlots-e.freeReduce)
	}
	t.marks[len(t.marks)-1].makespan = e.makespan
	return nil
}

// follow runs e, started and admitted by t, into res as RunInto would,
// copying from t each stretch it may. At a mark e reaches quiescent, the
// stretches from there on that its cluster repeats (answers) are the
// ones its own replay would give: it copies their outcomes, adds their
// events and peaks (stitch), and resumes after them on a second engine of
// p, armed on the rest of the trace as a split's segment is (armSuffix).
// It returns how many outcomes it copied.
func (e *Engine) follow(p *Pool, t *Trail, res *Result) (copied int, err error) {
	n := len(e.tr.Jobs)
	*res = Result{Jobs: e.out}
	run, marks := e, t.marks
	var s *Engine
	var view *trace.Trace
	defer func() { p.Put(s) }()
	for i := 0; run.remaining > 0; {
		pos := n - run.q.Preloaded()
		for i < len(marks) && marks[i].pos < pos {
			i++
		}
		j := i
		if i < len(marks) && marks[i].pos == pos && run.quiescent() {
			for j < len(marks) && t.answers(j, e.cfg) {
				j++
			}
		}
		if j == i {
			if err := run.step(); err != nil {
				return copied, err
			}
			continue
		}
		res.stitch(run)
		end, events := n, t.res.Events
		if j < len(marks) {
			end, events = marks[j].pos, marks[j].events
		}
		copy(e.out[pos:end], t.res.Jobs[pos:end])
		copied += end - pos
		res.Events += events - marks[i].events
		for _, m := range marks[i:j] {
			res.PeakMapSlots = max(res.PeakMapSlots, m.peakMap)
			res.PeakReduceSlots = max(res.PeakReduceSlots, m.peakReduce)
		}
		res.Makespan = marks[j-1].makespan
		if end == n {
			e.state = runDone
			return copied, nil
		}
		if s == nil {
			if s = p.take(); s == nil {
				s = new(Engine)
			}
			view = new(trace.Trace)
		}
		s.armSuffix(e, end, view)
		// The stretch at mark j is not repeated: no copy can begin there.
		run, i = s, j+1
	}
	res.stitch(run)
	res.Makespan = run.makespan
	e.state = runDone
	return copied, nil
}
