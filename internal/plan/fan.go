package plan

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// Request is one replay a fan-out asks for: Replay's config, trace and
// policy.
type Request struct {
	Cfg   engine.Config
	Trace *trace.Trace
	// Policy, when nil, is built by Fanout.NewPolicy when the request is
	// first looked up or replayed.
	Policy sched.Policy
}

// Fanout is a fan-out of requests (Plan.Fan) and where their outcomes go.
type Fanout struct {
	Requests []Request
	// NewPolicy builds the policy of each request that has none. Those
	// requests share it, as a sweep's cells share its policy or factory.
	NewPolicy func() sched.Policy
	// Keep hands every request a Result of its own (Cell.Keep); otherwise
	// each folds a lent one.
	Keep bool
	// Cell gives request i's label and sink; its other fields are ignored.
	Cell func(i int) Cell
	// Fold receives request i's Result.
	Fold func(i int, res *engine.Result)
	// Took gives request i, when it does not keep its Result, the outcome
	// of request from, whose finished replay answers for it.
	Took func(i, from int)
	// Wrap names request i in its error.
	Wrap func(i int, err error) error
}

// Fan runs every request of f, sharing replays between them by these
// rules (DESIGN.md §7, "One fan-out scheduler"):
//
//   - Groups. Requests group when they share a *Trace, a config up to
//     slot counts, and a policy engine.Answers accepts: NewPolicy, or
//     one fingerprint. Under MinEDF or PreemptMapTasks nothing shares.
//   - Order. Once every member is looked up, the misses are visited
//     largest cluster first (most slots, then most map slots), then by
//     ascending map and reduce slots. The first leads.
//   - Observed members, with a sink of their own or on an Observing
//     plan, ride each replay of the group that starts while they wait
//     to be claimed, the lead's first, through a gate (gate). A member
//     whose gate is still open at that replay's end has seen its own
//     stream: it settles from the replay's Result as a replay of its
//     own. One whose gate closes goes back to waiting, and is claimed in
//     visit order by any worker, its observers muted for what gates
//     passed on. Once a replay finds that its policy admits no answer,
//     its riders go back to waiting and the group boards none again.
//   - Members are claimed in visit order. A bare one that a finished
//     member's peaks answer (engine.Answers) takes that answer, accounted
//     as Answered: cached, no sink, recorder or telemetry. One that a
//     running replay S is expected to answer is skipped for now: it has
//     S's count of one kind and more of the other, and a finished replay
//     with at least S's slots of both kinds held fewer of that other kind
//     than S has. Any other replays, following the lead's trail once a
//     bare lead has left one (DESIGN.md §5, "Stretches below the peak").
//     A worker left with skipped members only waits for a replay to end.
//   - Results. A member that keeps its Result gets its own copy; a
//     rider's is allocated before the replay it rides starts. One that
//     folds folds the replay's lent Result inside its fold window.
//   - Cache. Every member is looked up before its group's lead starts. A
//     repeat of an earlier member's config is looked up once that member
//     has finished, and hits what it stored. An answered request that
//     keeps its Result is stored under its own key.
//
// Each request takes one worker body (Each), so Progress counts
// requests. The error is the lowest failing request's, in request order,
// at any worker count; canceling ctx ends every wait.
func (p *Plan) Fan(ctx context.Context, f Fanout) error {
	s := newFan(p, f)
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.changed.Broadcast()
			s.mu.Unlock()
		})()
	}
	err := p.Each(ctx, len(f.Requests), func(int) error { return s.next(ctx) })
	// Drop Results, sinks and callbacks: a worker not yet exited keeps only the scheduler.
	clear(s.ms)
	clear(s.groups)
	s.Fanout = Fanout{}
	return cmp.Or(s.err, err)
}

// fan is one Fan's scheduler. Its units of work are a lookup, and one
// member's replay (with its riders) or answer.
type fan struct {
	Fanout
	p      *Plan
	ms     []member
	groups []group
	ready  []unit // late members, in the order they became ready
	looked int    // members the lookup sequence has passed

	mu      sync.Mutex
	running int // units being worked on
	owed    int // members finished with no body returned for them
	// changed wakes the waiting workers as a unit finishes or is queued,
	// and once ctx is done.
	changed sync.Cond
	err     error // the failure at the lowest request so far
	errAt   int
}

// member is one request as the scheduler tracks it.
type member struct {
	pending
	g         *group // nil: the request shares with no other
	observed  bool
	claimable bool  // a member of a ready group, waiting to be claimed
	late      int   // the earlier member whose config it repeats, or -1
	riders    []int // the observed members riding its replay (claim)
	// What the member's Result holds: a kept Result, and the peaks.
	res   *engine.Result
	peaks engine.Result
}

// group is the members that may share replays.
type group struct {
	left    int   // members not looked up yet
	ms      []int // the misses, in visit order once ready
	late    []int // members that repeat an earlier member's config
	running []int // members whose replay is in flight
	kept    []int // finished members whose peaks answer a larger cluster
	trail   *engine.Trail
	// refuses is set once a replay with riders finds that its policy
	// admits no answer (NewPolicy's under MinEDF): no member boards
	// again.
	refuses bool
}

type unitKind uint8

const (
	lookupUnit unitKind = iota
	loneUnit            // lookup and replay in one: a lone or late member
	replayUnit          // a group member's replay, with its riders
	tookUnit            // a bare member answered by from
)

type unit struct {
	kind    unitKind
	i, from int
}

// groupKey is what a group's members share; cfg has no slot counts.
type groupKey struct {
	tr  *trace.Trace
	fp  uint64 // the policy's fingerprint; 0 for NewPolicy's
	cfg engine.Config
}

func newFan(p *Plan, f Fanout) *fan {
	n := len(f.Requests)
	s := &fan{Fanout: f, p: p, ms: make([]member, n), groups: make([]group, 0, n)}
	s.changed.L = &s.mu
	groups := map[groupKey]*group{}
	for i, rq := range f.Requests {
		m := &s.ms[i]
		m.pending = pending{p: p, cfg: rq.Cfg, tr: rq.Trace, pol: rq.Policy, c: f.Cell(i), i: i}
		m.c.Keep = f.Keep
		m.observed = m.c.Sink != nil || p.Observing()
		m.late = -1
		k := groupKey{tr: rq.Trace, cfg: rq.Cfg}
		k.cfg.MapSlots, k.cfg.ReduceSlots, k.cfg.Sink = 0, 0, nil
		if rq.Policy != nil {
			fp, ok := sched.FingerprintOf(rq.Policy)
			// Answers on an empty Result of cfg for cfg holds exactly when
			// the policy and config admit an answer at all.
			if !ok || !engine.Answers(&engine.Result{}, rq.Cfg, rq.Cfg, rq.Policy) {
				continue
			}
			k.fp = fp
		}
		if m.g = groups[k]; m.g == nil {
			s.groups = append(s.groups, group{})
			m.g = &s.groups[len(s.groups)-1]
			groups[k] = m.g
		}
		for j := 0; j < i && p.Cache != nil; j++ {
			if o := &s.ms[j]; o.g == m.g && o.late < 0 && o.cfg == m.cfg {
				m.late, m.g.late = j, append(m.g.late, i)
				break
			}
		}
		if m.late < 0 {
			m.g.left++
		}
	}
	// A group's misses, running and kept members come out of one array.
	buf := make([]int, 3*n)
	for k := range s.groups {
		g := &s.groups[k]
		g.ms, g.running, g.kept, buf = buf[:0:g.left], buf[g.left:g.left:2*g.left], buf[2*g.left:2*g.left:3*g.left], buf[3*g.left:]
	}
	for i := range s.ms {
		if g := s.ms[i].g; g != nil && g.left == 1 && len(g.late) == 0 {
			s.ms[i].g = nil
		}
	}
	return s
}

// next is one worker body: it works units until it may return.
func (s *fan) next(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case s.owed > 0:
			s.owed--
			return nil
		}
		u, ok := s.claim()
		if !ok {
			if s.running == 0 {
				return s.err
			}
			s.changed.Wait()
			continue
		}
		s.running++
		s.mu.Unlock()
		done := s.work(u)
		s.mu.Lock()
		s.running--
		s.owed += done
		s.changed.Broadcast()
	}
}

// claim takes the first late member ready, else the first member in
// visit order that Fan's rule lets go, else the next lookup. Once a
// request has failed, only work for lower requests is claimed. The
// caller holds s.mu.
func (s *fan) claim() (unit, bool) {
	before := func(i int) bool { return s.err == nil || i < s.errAt }
again:
	for {
		for k, u := range s.ready {
			if before(u.i) {
				s.ready = slices.Delete(s.ready, k, k+1)
				s.ms[u.i].g.running = append(s.ms[u.i].g.running, u.i)
				return u, true
			}
		}
		for k := range s.groups {
			g := &s.groups[k]
			for _, i := range g.ms {
				m := &s.ms[i]
				if !m.claimable || !before(i) {
					continue
				}
				if !m.observed {
					if from, ok := s.find(g, m.cfg); ok {
						m.claimable = false
						return unit{kind: tookUnit, i: i, from: from}, true
					}
					if s.expected(g, m.cfg) {
						continue
					}
					// Only the lead leaves a trail, once it has finished.
					if m.follow = g.trail; m.follow != nil {
						m.from = &s.ms[g.ms[0]].pending
					}
				}
				m.claimable = false
				g.running = append(g.running, i)
				// Riders board before the replay starts, so that no worker
				// claims them in between.
				for _, j := range g.ms {
					if r := &s.ms[j]; r.observed && r.claimable && !g.refuses {
						r.claimable = false
						m.riders = append(m.riders, j)
					}
				}
				return unit{kind: replayUnit, i: i}, true
			}
		}
		for s.looked < len(s.ms) {
			i := s.looked
			s.looked++
			switch m := &s.ms[i]; {
			case m.late >= 0:
			case m.g == nil:
				if before(i) {
					return unit{kind: loneUnit, i: i}, true
				}
			case s.p.Cache != nil:
				return unit{kind: lookupUnit, i: i}, true
			default:
				if s.lookedUp(i, true) {
					continue again
				}
			}
		}
		return unit{}, false
	}
}

// lookedUp counts member i's lookup for its group, and a miss among its
// misses; the last lookup of a group with misses readies it: it orders
// them, lead first, and lets them be claimed. It reports whether it did.
// The caller holds s.mu.
func (s *fan) lookedUp(i int, missed bool) bool {
	g := s.ms[i].g
	if missed {
		g.ms = append(g.ms, i)
	}
	if g.left--; g.left > 0 || len(g.ms) == 0 {
		return false
	}
	cfg := func(i int) engine.Config { return s.ms[i].cfg }
	slices.SortFunc(g.ms, func(a, b int) int {
		return cmp.Or(cmp.Compare(cfg(a).MapSlots, cfg(b).MapSlots), cmp.Compare(cfg(a).ReduceSlots, cfg(b).ReduceSlots), cmp.Compare(a, b))
	})
	l := slices.MaxFunc(g.ms, func(a, b int) int {
		return cmp.Or(cmp.Compare(cfg(a).MapSlots+cfg(a).ReduceSlots, cfg(b).MapSlots+cfg(b).ReduceSlots), cmp.Compare(cfg(a).MapSlots, cfg(b).MapSlots))
	})
	lead := slices.Index(g.ms, l)
	copy(g.ms[1:lead+1], g.ms[:lead])
	g.ms[0] = l
	for _, j := range g.ms {
		s.ms[j].claimable = true
	}
	s.changed.Broadcast()
	return true
}

// find returns a finished member whose peaks answer for cfg.
func (s *fan) find(g *group, cfg engine.Config) (int, bool) {
	for _, k := range g.kept {
		if f := &s.ms[k]; engine.Answers(&f.peaks, f.cfg, cfg, f.pol) {
			return k, true
		}
	}
	return 0, false
}

// expected reports whether a running replay S is expected to answer cfg:
// S shares one slot count with cfg, and a finished replay f with at
// least S's slots left one of the other kind free at S's count.
func (s *fan) expected(g *group, cfg engine.Config) bool {
	for _, r := range g.running {
		sc := s.ms[r].cfg
		for _, k := range g.kept {
			f := &s.ms[k]
			if f.cfg.MapSlots < sc.MapSlots || f.cfg.ReduceSlots < sc.ReduceSlots {
				continue
			}
			if cfg.MapSlots == sc.MapSlots && cfg.ReduceSlots > sc.ReduceSlots && f.peaks.PeakReduceSlots < sc.ReduceSlots ||
				cfg.ReduceSlots == sc.ReduceSlots && cfg.MapSlots > sc.MapSlots && f.peaks.PeakMapSlots < sc.MapSlots {
				return true
			}
		}
	}
	return false
}

// work does u and returns how many members it finished.
func (s *fan) work(u unit) int {
	i := u.i
	m := &s.ms[i]
	fold := func(res *engine.Result) { s.keep(i, res) }
	switch u.kind {
	case replayUnit:
		return s.replay(i)
	case tookUnit:
		m.from = &s.ms[u.from].pending
		if s.Keep {
			m.settle(Provenance{How: Answered, From: u.from}, copyInto(&engine.Result{}, s.ms[u.from].res), fold)
		} else {
			m.settle(Provenance{How: Answered, From: u.from}, nil, nil)
			s.Took(i, u.from)
		}
		return s.finish(i, nil, false)
	}
	s.policy(m)
	switch {
	case u.kind == lookupUnit:
		hit := m.lookup(fold)
		s.mu.Lock()
		s.lookedUp(i, !hit)
		s.mu.Unlock()
		if !hit {
			return 0
		}
	case !m.lookup(fold):
		return s.finish(i, m.run(fold), true)
	}
	return s.finish(i, nil, true)
}

// replay replays member i of a group, with the observed members that
// waited to be claimed when it was (claim) riding it through gates, and
// settles it and each rider whose gate stayed open. A rider whose gate
// closes waits again; all do when the policy admits no answer, and the
// group boards no rider after that. A bare lead that carries no rider
// leaves a trail for the group's bare members.
func (s *fan) replay(i int) int {
	l := &s.ms[i]
	g := l.g
	s.policy(l)
	riders := l.riders
	if len(riders) > 0 && !engine.Answers(&engine.Result{}, l.cfg, l.cfg, l.pol) {
		s.mu.Lock()
		g.refuses = true
		for _, j := range riders {
			s.ms[j].claimable = true
		}
		s.changed.Broadcast()
		s.mu.Unlock()
		riders = nil
	}
	gates := make([]*gate, len(riders))
	var sinks []obs.Sink
	for k, j := range riders {
		m := &s.ms[j]
		m.observe()
		if s.Keep && m.into == nil {
			m.into = &engine.Result{Jobs: make([]engine.JobOutcome, 0, len(m.tr.Jobs))}
		}
		gates[k] = newGate(l.cfg, &m.pending, func() { s.mu.Lock(); m.claimable = true; s.changed.Broadcast(); s.mu.Unlock() })
		if !gates[k].closed {
			sinks = append(sinks, gates[k])
		}
	}
	l.gates = obs.Tee(sinks...)
	l.leads = i == g.ms[0] && slices.ContainsFunc(g.ms, func(j int) bool { return !s.ms[j].observed && j != i })
	err := l.run(func(res *engine.Result) {
		s.keep(i, res)
		for k, gt := range gates {
			if j := riders[k]; !gt.closed {
				m, r := &s.ms[j], res
				if s.Keep {
					r = copyInto(m.into, res)
				}
				m.from = &l.pending
				m.settle(Provenance{How: Followed, From: i}, r, func(res *engine.Result) { s.keep(j, res) })
			}
		}
	})
	if err != nil {
		for _, gt := range gates {
			if !gt.closed {
				gt.close()
			}
		}
	}
	s.mu.Lock()
	if l.trail != nil {
		g.trail = l.trail
	}
	n := 0
	for k, gt := range gates {
		if !gt.closed {
			n += s.settled(riders[k], nil, false)
		}
	}
	s.mu.Unlock()
	return n + s.finish(i, err, true)
}

// policy builds m's policy if the request has none, and names the run's
// policy after it.
func (s *fan) policy(m *member) {
	if m.pol == nil {
		m.pol = s.NewPolicy()
		s.p.run.NamePolicy(m.pol.Name())
	}
}

// keep folds member i's Result, holding what a later member may take
// from it.
func (s *fan) keep(i int, res *engine.Result) {
	m := &s.ms[i]
	m.peaks.PeakMapSlots, m.peaks.PeakReduceSlots = res.PeakMapSlots, res.PeakReduceSlots
	if s.Keep {
		m.res = res
	}
	s.Fold(i, res)
}

// finish settles member i (settled) and, when its Result is its own,
// runs the test hook once waiting workers may claim on the strength of
// it.
func (s *fan) finish(i int, err error, own bool) int {
	if err != nil && s.Wrap != nil {
		err = s.Wrap(i, err)
	}
	s.mu.Lock()
	n := s.settled(i, err, own)
	s.mu.Unlock()
	if own && testHookSettled != nil {
		testHookSettled()
	}
	return n
}

// settled records member i as finished, with err or not. A Result of
// its own — a replay or a hit — whose peaks answer a larger cluster is
// kept for the group, and the members that repeat its config are
// queued. It returns how many members that finished. The caller holds
// s.mu.
func (s *fan) settled(i int, err error, own bool) int {
	m := &s.ms[i]
	if g := m.g; g != nil {
		g.running = slices.DeleteFunc(g.running, func(r int) bool { return r == i })
		if err == nil && own && answersLarger(m) {
			g.kept = append(g.kept, i)
		}
		for _, l := range g.late {
			if s.ms[l].late == i {
				s.ready = append(s.ready, unit{kind: loneUnit, i: l})
			}
		}
	}
	s.changed.Broadcast()
	if err == nil {
		return 1
	}
	if s.err == nil || i < s.errAt {
		s.err, s.errAt = err, i
	}
	return 0
}

// answersLarger reports whether m's finished replay answers for a
// cluster with one more slot of some kind: whether it left a slot unused
// throughout, under a policy that may be answered for.
func answersLarger(m *member) bool {
	wider, taller := m.cfg, m.cfg
	wider.MapSlots++
	taller.ReduceSlots++
	return engine.Answers(&m.peaks, m.cfg, wider, m.pol) || engine.Answers(&m.peaks, m.cfg, taller, m.pol)
}

// testHookSettled, when set, runs each time a replay or hit has
// settled, before any worker can claim on the strength of it.
var testHookSettled func()
