// Package plan is the one path every replay takes. A replay started by
// the library or the CLI — a single replay, a capacity-sweep cell, a
// batch spec, a what-if branch, a Figure 7/8 repetition — is a cell of
// a Plan, and the plan owns everything that is not the caller's own
// arithmetic:
//
//	key → lookup → observe → run-or-fold → store → account
//
// in two layers. Begin / Each / End is the fan-out: run registration,
// the worker pool, and on every exit the run's End. Replay (Branch for a
// what-if cell) is the per-replay step inside a cell. Fan is the one
// scheduler of a fan-out whose replays may share: a capacity sweep's
// cells and a batch's specs. The entry points
// in pkg/simmr, internal/experiments and cmd/simmr generate cells and
// reduce results; none of them touches the cache, the run registry, a
// flight recorder, the telemetry registry or the engine pool (`make
// verify` greps for it). The contract — who takes the digest, when sinks
// are built, what a hit skips, the phase names, what a branch cell
// varies — is DESIGN.md §7 "The run plan"; TestPlanContract checks it.
package plan

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/parallel"
	"simmr/internal/rcache"
	"simmr/internal/runs"
	"simmr/internal/sched"
	"simmr/internal/telemetry"
	"simmr/internal/trace"
)

// Options are the six cross-cutting knobs, declared here once. Every
// entry point converts its public config to this value in one
// expression; a zero Options is a bare fan-out on one worker per CPU.
type Options struct {
	// Workers bounds concurrent cells: 0 means one per CPU, 1 is serial.
	Workers int
	// Progress receives bounded-rate (done cells, total cells) callbacks.
	Progress parallel.ProgressFunc
	// Telemetry records every simulated replay.
	Telemetry *telemetry.SimMetrics
	// Runs registers the plan in the ops-plane run registry.
	Runs *runs.Registry
	// Flight, with Runs, is the ring size of each simulated replay's
	// flight recorder (-1: the default size; 0: none).
	Flight int
	// Cache memoizes keyed replays.
	Cache *rcache.Cache
}

// Run is what a plan registers as: the identity /runs shows, the traces
// known up front, and how many replays it will make.
type Run struct {
	Kind runs.Kind
	// Policy is named in the identity when one policy is statically known.
	Policy sched.Policy
	// Config fingerprints the entry point's configuration.
	Config string
	// Traces lists every trace the cells will replay, as far as known
	// before the fan-out (repeats allowed). When they are all one trace
	// the identity carries its name and digest.
	Traces []*trace.Trace
	// Replays is the number of Replay/Branch calls or Fan requests of a
	// plan that runs to completion.
	Replays int
}

// Plan is one executing run plan.
type Plan struct {
	Options
	run     *runs.Handle
	pool    *engine.Pool
	replays int
	digests map[*trace.Trace]uint64
	// single marks One's registered plan: progress and run totals come
	// from the run handle's engine hook, not from cell completions.
	single bool
	// settled counts the Results handed out, by how each was produced.
	settled [hows]atomic.Int64

	// The sealed prefix of a branch set (Prefix): every Branch cell
	// forks from snap, continues a Fork of prefixRec and of prefixTel,
	// and inherited baseline events.
	snap      *engine.Snapshot
	prefixRec *obs.FlightRecorder
	prefixTel forkSink
	baseline  uint64
}

// forkSink is a telemetry engine sink: a branch's continues a Fork of
// the prefix's, so it knows the jobs that arrived before the branch.
type forkSink interface {
	obs.Sink
	Fork() obs.Sink
}

// Begin starts a plan: digests, run registration, the observed engine
// pool. Every Begin is paired with one End.
func Begin(o Options, r Run) *Plan {
	p := &Plan{Options: o, pool: &engine.Shared, replays: r.Replays}
	if o.Runs != nil || o.Cache != nil {
		p.digests = make(map[*trace.Trace]uint64, 1)
		for _, tr := range r.Traces {
			if _, seen := p.digests[tr]; !seen && tr != nil {
				p.digests[tr] = tr.ContentHash()
			}
		}
	}
	if o.Runs != nil {
		meta := runs.Meta{Kind: r.Kind, Config: r.Config}
		if tr := sole(r.Traces); tr != nil {
			meta.Trace, meta.TraceHash = tr.Name, fmt.Sprintf("%016x", p.digests[tr])
		}
		if r.Policy != nil {
			meta.Policy = r.Policy.Name()
		}
		p.run = o.Runs.Begin(meta)
		p.run.SetPhase("replay")
	}
	if o.Telemetry != nil {
		p.pool = p.pool.Observed(o.Telemetry.PoolGet)
	}
	return p
}

// sole returns the one trace every element names, or nil for none or a
// mix (a batch over several traces registers anonymously).
func sole(traces []*trace.Trace) *trace.Trace {
	if len(traces) == 0 {
		return nil
	}
	for _, tr := range traces[1:] {
		if tr != traces[0] {
			return nil
		}
	}
	return traces[0]
}

// Each runs body(i) for every cell in [0, cells) on the worker pool;
// body calls Replay or Branch for the cell's replays and writes its
// reduced result where the caller keeps it. The lowest failing cell's
// error is returned and the remaining cells are cancelled.
func (p *Plan) Each(ctx context.Context, cells int, body func(i int) error) error {
	return parallel.ForEachProgress(ctx, p.Workers, cells, p.run.ProgressFunc(p.Progress),
		func(_ context.Context, i int) error { return body(i) })
}

// End settles the plan with the fan-out's outcome and returns it: the
// "cached" phase, the run's End.
func (p *Plan) End(err error) error {
	if err == nil && p.replays > 0 && p.settled[Cached].Load()+p.settled[Answered].Load() == int64(p.replays) {
		p.run.SetPhase("cached")
	}
	p.run.End(err)
	return err
}

// Hits returns how many replays the cache has served so far.
func (p *Plan) Hits() uint64 { return uint64(p.settled[Cached].Load()) }

// Recording reports whether simulated cells carry a flight recorder —
// the only time a cell's label is read, so a caller that formats labels
// can skip it otherwise.
func (p *Plan) Recording() bool { return p.run != nil && p.Flight != 0 }

// Observing reports whether the plan itself observes every replay, with
// a flight recorder, a single replay's engine hook or telemetry (observe);
// a cell's own sink observes it besides.
func (p *Plan) Observing() bool {
	return p.prefixRec != nil || p.Recording() || p.single || p.Telemetry != nil
}

// Cell is what one replay brings besides its (config, trace, policy):
// nothing in it outlives the Replay call.
type Cell struct {
	// Label names the replay's flight recorder.
	Label string
	// Sink, when set, builds the cell's own observer. It is called on
	// the worker goroutine, and only if the replay will simulate.
	Sink func() obs.Sink
	// Keep hands the fold a Result of its own, as Pool.Run returns it,
	// instead of lending the engine's, as Pool.Fold does. A hit's Result
	// is the fold's to keep either way.
	Keep bool
	// Edit, on a Branch cell, mutates the paused fork before it runs.
	Edit func(*engine.Engine) error
	// split lets a kept replay run as segments on up to Workers cores
	// when nothing observes it (engine.Pool.RunSplit): One's cell only, as
	// a fan-out keeps the cores busy with its cells.
	split bool
}

// Replay is the per-replay step: it replays tr under cfg (whose Sink is
// ignored — see Cell.Sink) and pol, or serves the cached result, and
// hands the outcome to fold. fold is not called when the replay fails.
func (p *Plan) Replay(cfg engine.Config, tr *trace.Trace, pol sched.Policy, c Cell, fold func(*engine.Result)) (hit bool, err error) {
	r := pending{p: p, cfg: cfg, tr: tr, pol: pol, c: c}
	if r.lookup(fold) {
		return true, nil
	}
	return false, r.run(fold)
}

// pending is one replay's path past its key: lookup, then observe →
// run-or-fold → store → account (run).
type pending struct {
	p     *Plan
	cfg   engine.Config
	tr    *trace.Trace
	pol   sched.Policy
	c     Cell
	key   rcache.Key
	keyed bool
	i     int      // the request's index in a Fan: its Provenance.From
	from  *pending // the request whose replay or answer this one took (Fan)
	// follow is a trail of the same trace for a bare replay to copy what
	// it may of (engine.Pool.FoldTrail); leads makes a bare replay leave
	// one (engine.Pool.RunTrail), in trail, for others to follow.
	follow *engine.Trail
	leads  bool
	trail  *engine.Trail
	// gates passes the replay's stream on to the followers riding it
	// (Fan).
	gates obs.Sink

	// The observers, once built (observe).
	observed bool
	sink     obs.Sink
	rec      *obs.FlightRecorder
	start    time.Time
	// seen is what a gate passed on to the observers before it cut the
	// replay: its own run mutes that much (Fan).
	seen passed
	// into, when set, is where a kept replay puts its Result (Fan).
	into *engine.Result
}

// lookup is key → lookup; it reports a hit, which it has folded. fold
// is an argument, here and to run and settle, rather than read from r,
// so that Replay's closure stays on its caller's stack.
func (r *pending) lookup(fold func(*engine.Result)) bool {
	p := r.p
	if p.Cache == nil || r.tr == nil {
		return false
	}
	digest, known := p.digests[r.tr]
	if !known {
		digest = r.tr.ContentHash()
	}
	if r.key, r.keyed = rcache.KeyFor(digest, r.cfg, r.pol); !r.keyed {
		return false
	}
	res, ok := p.Cache.Get(r.key)
	if ok {
		r.settle(Provenance{How: Cached}, res, fold)
	}
	return ok
}

// observe builds the replay's observers, once: the cell's sink, a
// recorder, the engine hook of a single replay and the telemetry sink,
// behind one flat Tee — and no Tee at all on a bare plan.
func (r *pending) observe() obs.Sink {
	if r.observed {
		return r.sink
	}
	r.observed = true
	p := r.p
	var sink obs.Sink
	if r.c.Sink != nil {
		sink = r.c.Sink()
	}
	switch {
	case p.prefixRec != nil:
		r.rec = p.prefixRec.Fork()
	case p.Recording():
		r.rec = obs.NewFlightRecorder(p.Flight)
	}
	if r.rec != nil {
		r.rec.SetLabel(r.c.Label)
		p.run.AttachFlight(r.rec)
		sink = obs.Tee(sink, r.rec)
	}
	if p.single {
		sink = obs.Tee(sink, p.run.EngineHook())
	}
	if tel := p.Telemetry; tel != nil {
		if p.prefixTel != nil {
			sink = obs.Tee(sink, p.prefixTel.Fork())
		} else {
			sink = obs.Tee(sink, tel.EngineSink())
		}
		r.start = time.Now()
	}
	r.sink = sink
	return sink
}

// unseen is the observers of a replay a gate cut (Fan), hiding from them
// what gates already passed on.
func (r *pending) unseen() obs.Sink {
	if r.sink == nil || r.seen == (passed{}) {
		return r.sink
	}
	return newMute(r.sink, r.seen)
}

// How is the way a Result the plan hands out was produced.
type How uint8

const (
	Simulated How = iota // replayed straight through
	Split                // replayed as segments split at quiescent instants (One)
	Answered             // taken from request From's finished replay, whose peaks answer for it (Fan)
	Copied               // replayed following request From's trail, copying Jobs outcomes (Fan)
	Followed             // seen through a gate riding request From's replay to its end (Fan)
	Cached               // served by the result cache
	Forked               // a branch replayed from a fork of the sealed prefix
	hows
)

// Provenance is how a Result was produced, and what its shortcut took:
// a split replay's Segments, those Cancelled at a busy boundary; the
// prefix's events a branch forked after (Event).
type Provenance struct {
	How                             How
	From, Segments, Cancelled, Jobs int
	Event                           uint64
}

// Settled, when set, sees every Result the plan hands out before it is
// folded: how it was produced, for which request, and src, the request
// From, whose policy stands in for one Fan built none for; a nil res is
// an answer the request does not keep. Only tests set it (plantest).
var Settled func(pv Provenance, rq Request, res *engine.Result, src Request)

// settle is the one way a Result leaves the plan, while a lent Result is
// still the engine's: it accounts for res by how it was produced (a hit
// or an answer counts as cached; a replay adds a deadline-miss dump,
// telemetry, events and jobs), stores it unless the cache served it,
// and folds it. A nil res is an answer the caller takes (Fanout.Took).
func (r *pending) settle(pv Provenance, res *engine.Result, fold func(*engine.Result)) {
	p := r.p
	p.settled[pv.How].Add(1)
	switch pv.How {
	case Cached, Answered:
		p.run.AddCached(1)
		p.run.AddJobs(uint64(len(r.tr.Jobs)))
	default:
		if r.rec != nil && slices.ContainsFunc(res.Jobs, func(j engine.JobOutcome) bool { return j.ExceededDeadline() }) {
			p.run.AddFlightDump(r.rec.Dump("deadline-miss"))
		}
		if tel := p.Telemetry; tel != nil {
			tel.ReplayDone(time.Since(r.start), res.Events-p.baseline)
		}
		if !p.single {
			p.run.AddEvents(res.Events - p.baseline)
			p.run.AddJobs(uint64(len(res.Jobs)))
		}
	}
	if r.keyed && res != nil && pv.How != Cached {
		p.Cache.Put(r.key, res)
	}
	if Settled != nil {
		var src Request
		if f := r.from; f != nil {
			src = Request{f.cfg, f.tr, f.pol}
		}
		Settled(pv, Request{r.cfg, r.tr, r.pol}, res, src)
	}
	if res != nil {
		fold(res)
	}
}

// run replays the cell — observe, run or fold, store, account — and
// hands the outcome to fold, which is not called when the replay fails.
// A replay a gate cut (Fan) keeps the observers it had and hides from
// them what the gate already passed on.
func (r *pending) run(fold func(*engine.Result)) (err error) {
	p, c := r.p, &r.c
	var sink obs.Sink
	if r.observed {
		// A follower a gate cut (Fan).
		sink, r.start = r.unseen(), time.Now()
	} else {
		sink = r.observe()
	}
	cfg := r.cfg
	if cfg.Sink = sink; r.gates != nil {
		cfg.Sink = obs.Tee(sink, r.gates)
	}
	var res *engine.Result
	pv := Provenance{How: Simulated}
	switch {
	case p.snap != nil:
		res, err = p.branch(sink, c.Edit)
		pv = Provenance{How: Forked, Event: p.baseline}
	case r.leads && cfg.Sink == nil:
		res, r.trail, err = p.pool.RunTrail(cfg, r.tr, r.pol)
	case c.split:
		var segments, cancelled int
		if res, segments, cancelled, err = p.pool.RunSplit(cfg, r.tr, r.pol, p.Workers); segments > 1 {
			pv = Provenance{How: Split, Segments: segments, Cancelled: cancelled}
		}
	case c.Keep && r.follow == nil:
		if res = r.into; res == nil {
			res = new(engine.Result)
		}
		var e *engine.Engine
		if e, err = p.pool.Get(cfg, r.tr, r.pol); err == nil {
			err = e.RunInto(res)
			p.pool.Put(e)
		}
	default:
		// A follower's Result is lent; a kept one is a copy of it.
		err = p.pool.FoldTrail(cfg, r.tr, r.pol, r.follow, func(res *engine.Result, copied int) {
			if c.Keep {
				res = copyInto(&engine.Result{}, res)
			}
			if copied > 0 {
				pv = Provenance{How: Copied, From: r.from.i, Jobs: copied}
			}
			r.settle(pv, res, fold)
		})
	}
	if err == nil && res != nil {
		r.settle(pv, res, fold)
	}
	if err != nil && r.rec != nil {
		p.run.AddFlightDump(r.rec.Dump("error"))
	}
	return err
}

// Prefix turns the plan into a branch set: it replays tr under cfg and
// pol on an engine of its own for the given number of events (or to the
// end of the replay), observed by cfg.Sink, the telemetry sink and a
// prefix flight recorder, and seals it. Every cell after it is a Branch.
// The prefix's events are added to the run once, here.
func (p *Plan) Prefix(cfg engine.Config, tr *trace.Trace, pol sched.Policy, events uint64) error {
	p.run.SetPhase("prefix")
	if p.Recording() {
		p.prefixRec = obs.NewFlightRecorder(p.Flight)
		cfg.Sink = obs.Tee(cfg.Sink, p.prefixRec)
	}
	if tel := p.Telemetry; tel != nil {
		p.prefixTel = tel.EngineSink().(forkSink)
		cfg.Sink = obs.Tee(cfg.Sink, p.prefixTel)
	}
	e, err := engine.New(cfg, tr, pol)
	if err == nil {
		_, err = e.RunEvents(events)
	}
	if err == nil {
		p.snap, err = e.Snapshot()
	}
	if err != nil {
		return err
	}
	p.baseline = p.snap.Events()
	p.run.AddEvents(p.baseline)
	p.run.SetPhase("branches")
	return nil
}

// Branch is Replay for a cell of a branch set: armed by Pool.Fork from
// the sealed prefix instead of Pool.Get, edited by c.Edit while paused,
// recorded by Forks of the prefix recorder and telemetry sink,
// accounted for the events beyond the prefix's. Branches are never
// keyed, and keep their Result.
func (p *Plan) Branch(c Cell, fold func(*engine.Result)) error {
	_, err := p.Replay(engine.Config{}, nil, nil, c, fold)
	return err
}

// branch is the arm-edit-run variation of run-or-fold. The fork goes
// back to the pool whether or not its edit and run succeed.
func (p *Plan) branch(sink obs.Sink, edit func(*engine.Engine) error) (res *engine.Result, err error) {
	f, err := p.pool.Fork(p.snap, engine.ForkOptions{Sink: sink})
	if err != nil {
		return nil, err
	}
	if edit != nil {
		err = edit(f)
	}
	if err == nil {
		res, err = f.Run()
	}
	if err == nil {
		p.Telemetry.ForkDone(f.ForkStats().BytesCopied)
	}
	p.pool.Put(f)
	return res, err
}

// One is the one-cell plan behind every single replay — ReplayCached
// and the CLI's replay, `trace run` and `trace explain`: cfg.Sink is the
// cell's sink (it does not fire on a hit), the Result is the caller's,
// and live progress comes from the run handle's engine hook rather than
// from cell completions. A replay with no sink of any kind — no cfg.Sink,
// Runs or Telemetry — splits at quiescent instants over Workers cores
// (0: all of them; DESIGN.md §7).
func One(o Options, kind runs.Kind, cfg engine.Config, tr *trace.Trace, pol sched.Policy) (res *engine.Result, hit bool, err error) {
	r := Run{Kind: kind, Policy: pol, Traces: []*trace.Trace{tr}, Replays: 1}
	if o.Runs != nil {
		r.Config = fmt.Sprintf("map_slots=%d reduce_slots=%d", cfg.MapSlots, cfg.ReduceSlots)
	}
	p := Begin(o, r)
	p.single = p.run != nil
	sink := cfg.Sink
	hit, err = p.Replay(cfg, tr, pol, Cell{Label: string(kind), Keep: true, split: true, Sink: func() obs.Sink { return sink }},
		func(r *engine.Result) { res = r })
	return res, hit, p.End(err)
}
