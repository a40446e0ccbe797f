// Package plan is the one path every replay takes. A replay started by
// the library or the CLI — a single replay, a capacity-sweep cell, a
// batch spec, a what-if branch, a Figure 7/8 repetition — is a cell of
// a Plan, and the plan owns everything that is not the caller's own
// arithmetic:
//
//	key → lookup → observe → run-or-fold → store → account
//
// in two layers. Begin / Each / End is the fan-out: run registration,
// the worker pool, and on every exit the run's End. Replay is the
// per-replay step inside a cell. Fan is the one scheduler of a fan-out
// of requests: a capacity sweep's cells, a batch's specs, and a what-if
// branch set's branches, each a request that forks from the prefix
// Prefix sealed. The entry points
// in pkg/simmr, internal/experiments and cmd/simmr generate cells and
// reduce results; none of them touches the cache, the run registry, a
// flight recorder, the telemetry registry or the engine pool (`make
// verify` greps for it). The contract — who takes the digest, when sinks
// are built, what a hit skips, the phase names, what a branch request
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
	// Replays is the number of Replay calls or Fan requests of a plan
	// that runs to completion.
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
// body calls Replay for the cell's replays and writes its
// reduced result where the caller keeps it. The lowest failing cell's
// error is returned and the remaining cells are cancelled.
func (p *Plan) Each(ctx context.Context, cells int, body func(i int) error) error {
	return parallel.ForEachProgress(ctx, p.Workers, cells, p.run.ProgressFunc(p.Progress),
		func(_ context.Context, i int) error { return body(i) })
}

// End settles the plan with the fan-out's outcome and returns it: the
// "cached" phase, the run's End.
func (p *Plan) End(err error) error {
	var taken int64
	for h := range hows {
		if !h.simulated() {
			taken += p.settled[h].Load()
		}
	}
	if err == nil && p.replays > 0 && taken == int64(p.replays) {
		p.run.SetPhase("cached")
	}
	p.run.End(err)
	return err
}

// Hits returns how many replays the cache has served so far.
func (p *Plan) Hits() uint64 { return uint64(p.settled[Cached].Load()) }

// Recording reports whether simulated replays carry a flight recorder —
// the only time a request's Label is read, so a caller that formats
// labels can skip it otherwise.
func (p *Plan) Recording() bool { return p.run != nil && p.Flight != 0 }

// Request is one replay: its config, trace and policy, or a branch from
// a sealed prefix (Plan.Prefix), and what observes it besides the plan.
// Nothing in it outlives the replay.
type Request struct {
	// Cfg configures the replay; its Sink is ignored (see Sink).
	Cfg   engine.Config
	Trace *trace.Trace
	// Policy, when nil, is built by Fanout.NewPolicy when the request is
	// first looked up or replayed.
	Policy sched.Policy
	// Edit, on a branch, mutates the paused fork before it runs.
	Edit func(*engine.Engine) error
	// Label names the replay's flight recorder.
	Label string
	// Sink, when set, builds the replay's own observer. It is called on
	// the worker goroutine, and only if the replay will simulate.
	Sink func() obs.Sink
	pre  *prefix // the sealed prefix a branch forks from
}

// Replay is the per-replay step: it replays rq, or serves the cached
// result, and hands the outcome to fold. fold is not called when the
// replay fails.
func (p *Plan) Replay(rq Request, fold func(*engine.Result)) (hit bool, err error) {
	r := pending{Request: rq, p: p}
	return r.replay(fold)
}

// pending is one replay's path past its key: lookup, then observe →
// run-or-fold → store → account (run).
type pending struct {
	Request
	p *Plan
	// keep hands the fold a Result of its own, as Pool.Run returns it,
	// instead of lending the engine's, as Pool.FoldTrail does. A hit's
	// Result is the fold's to keep either way.
	keep bool
	// split lets a kept replay run as segments on up to Workers cores
	// when nothing observes it (engine.Pool.RunSplit): One's replay only,
	// as a fan-out keeps the cores busy with its requests.
	split bool
	// totals marks a fold that reads the Result's totals only (Totals):
	// unless the plan reads the jobs itself, the split replay keeps none.
	totals bool
	key    rcache.Key
	keyed  bool
	i      int      // the request's index in a Fan: its Provenance.From
	from   *pending // the request whose replay or answer this one took (Fan)
	// follow is a trail of the same trace for a bare replay to copy what
	// it may of (engine.Pool.FoldTrail); leads makes a bare replay leave
	// one (engine.Pool.RunTrail), in trail, for others to follow.
	follow *engine.Trail
	leads  bool
	trail  *engine.Trail
	// gates passes the replay's stream on to the followers riding it
	// (Fan).
	gates obs.Sink

	// The request's own sink, once built (own), and the replay's recorder
	// (observe).
	built bool
	sink  obs.Sink
	rec   *obs.FlightRecorder
	start time.Time
	// seen counts the events gates passed on to the request's own sink
	// before they cut the replays it rode: its own run mutes that many
	// (Fan).
	seen uint64
	// into, when set, is where a kept replay puts its Result (Fan).
	into *engine.Result
}

// replay is lookup, then run on a miss.
func (r *pending) replay(fold func(*engine.Result)) (hit bool, err error) {
	if r.lookup(fold) {
		return true, nil
	}
	return false, r.run(fold)
}

// lookup is key → lookup; it reports a hit, which it has folded. fold
// is an argument, here and to run and settle, rather than read from r,
// so that Replay's closure stays on its caller's stack.
func (r *pending) lookup(fold func(*engine.Result)) bool {
	p := r.p
	if p.Cache == nil || r.pre != nil {
		return false
	}
	digest, known := p.digests[r.Trace]
	if !known {
		digest = r.Trace.ContentHash()
	}
	if r.key, r.keyed = rcache.KeyFor(digest, r.Cfg, r.Policy); !r.keyed {
		return false
	}
	res, ok := p.Cache.Get(r.key)
	if ok {
		r.settle(Provenance{How: Cached}, res, fold)
	}
	return ok
}

// own is the request's own sink, built once, hiding what gates already
// passed on to it (Fan).
func (r *pending) own() obs.Sink {
	if !r.built && r.Sink != nil {
		r.sink = r.Sink()
	}
	r.built = true
	if r.sink == nil || r.seen == 0 {
		return r.sink
	}
	return newMute(r.sink, r.seen)
}

// observe builds the observers of a replay that simulates: the request's
// own sink, a recorder, the engine hook of a single replay and the
// telemetry sink, behind one flat Tee — and no Tee at all on a bare
// plan. A rider's gate feeds its own sink alone (Fan), so the plan's
// observers see each simulated event once.
func (r *pending) observe() obs.Sink {
	p := r.p
	sink := r.own()
	switch {
	case !p.Recording():
	case r.pre != nil:
		r.rec = r.pre.rec.Fork()
	default:
		r.rec = obs.NewFlightRecorder(p.Flight)
	}
	if r.rec != nil {
		r.rec.SetLabel(r.Label)
		p.run.AttachFlight(r.rec)
		sink = obs.Tee(sink, r.rec)
	}
	if p.single {
		sink = obs.Tee(sink, p.run.EngineHook(len(r.Trace.Jobs)))
	}
	if tel := p.Telemetry; tel != nil {
		if r.pre != nil {
			sink = obs.Tee(sink, r.pre.tel.Fork())
		} else {
			sink = obs.Tee(sink, tel.EngineSink())
		}
		r.start = time.Now()
	}
	return sink
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

// simulated reports whether a Result produced so was simulated, if only
// in part: a cached, answered or followed one was not.
func (h How) simulated() bool { return h != Cached && h != Answered && h != Followed }

// Provenance is how a Result was produced, and what its shortcut took:
// a split replay's Segments, those Cancelled at a busy boundary; the
// job outcomes a copy copied (Jobs); the events taken rather than
// simulated (Event): the prefix's a branch forked after, the stretches
// a copy copied.
type Provenance struct {
	How                             How
	From, Segments, Cancelled, Jobs int
	Event                           uint64
}

// Settled, when set, sees every Result the plan hands out before it is
// folded: how it was produced, whether the plan accounted it as
// simulated, for which request, and src, the request From, whose policy
// stands in for one Fan built none for; a nil res is an answer the
// request does not keep. Only tests set it (plantest).
var Settled func(pv Provenance, simulated bool, rq Request, res *engine.Result, src Request)

// settle is the one way a Result leaves the plan, while a lent Result is
// still the engine's: it accounts for res by how it was produced (one
// that was not simulated counts as cached; one that was adds a
// deadline-miss dump, telemetry, the events it simulated and its jobs),
// stores it unless the cache served it, and folds it. A nil res is an
// answer the caller takes (Fanout.Took).
func (r *pending) settle(pv Provenance, res *engine.Result, fold func(*engine.Result)) {
	p := r.p
	p.settled[pv.How].Add(1)
	simulated := pv.How.simulated()
	if !simulated {
		p.run.AddCached(1)
		p.run.AddJobs(uint64(len(r.Trace.Jobs)))
	} else {
		events := res.Events - pv.Event
		if r.rec != nil && slices.ContainsFunc(res.Jobs, func(j engine.JobOutcome) bool { return j.ExceededDeadline() }) {
			p.run.AddFlightDump(r.rec.Dump("deadline-miss"))
		}
		if tel := p.Telemetry; tel != nil {
			tel.ReplayDone(time.Since(r.start))
		}
		if !p.single {
			p.run.AddEvents(events)
			p.run.AddJobs(uint64(len(res.Jobs)))
		}
	}
	if r.keyed && res != nil && pv.How != Cached {
		p.Cache.Put(r.key, res)
	}
	if Settled != nil {
		var src Request
		if f := r.from; f != nil {
			src = f.Request
		}
		Settled(pv, simulated, r.Request, res, src)
	}
	if res != nil {
		fold(res)
	}
}

// run replays the request — observe, run or fold, store, account — and
// hands the outcome to fold, which is not called when the replay fails.
func (r *pending) run(fold func(*engine.Result)) (err error) {
	p := r.p
	sink := r.observe()
	cfg := r.Cfg
	if cfg.Sink = sink; r.gates != nil {
		cfg.Sink = obs.Tee(sink, r.gates)
	}
	var res *engine.Result
	pv := Provenance{How: Simulated}
	switch {
	case r.pre != nil:
		res, err = r.branch(sink)
		pv = Provenance{How: Forked, Event: r.pre.events}
	case r.leads && cfg.Sink == nil:
		res, r.trail, err = p.pool.RunTrail(cfg, r.Trace, r.Policy)
	case r.split:
		// The plan reads the jobs of a Result it stores or whose recorder
		// may dump a deadline miss (settle).
		totals := r.totals && !r.keyed && r.rec == nil
		var segments, cancelled int
		if res, segments, cancelled, err = p.pool.RunSplit(cfg, r.Trace, r.Policy, p.Workers, totals); segments > 1 {
			pv = Provenance{How: Split, Segments: segments, Cancelled: cancelled}
		}
	case r.keep && r.follow == nil:
		if res = r.into; res == nil {
			res = new(engine.Result)
		}
		var e *engine.Engine
		if e, err = p.pool.Get(cfg, r.Trace, r.Policy); err == nil {
			err = e.RunInto(res)
			p.pool.Put(e)
		}
	default:
		// A follower's Result is lent; a kept one is a copy of it.
		err = p.pool.FoldTrail(cfg, r.Trace, r.Policy, r.follow, func(res *engine.Result, jobs int, events uint64) {
			if r.keep {
				res = copyInto(&engine.Result{}, res)
			}
			if jobs > 0 {
				pv = Provenance{How: Copied, From: r.from.i, Jobs: jobs, Event: events}
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

// prefix is a branch set's sealed prefix (Plan.Prefix): a request that
// carries it is armed by a fork of snap (Pool.Fork, not Pool.Get),
// edited while paused, recorded by Forks of rec and of tel, and
// accounted for the events beyond the prefix's.
type prefix struct {
	snap   *engine.Snapshot
	rec    *obs.FlightRecorder
	tel    forkSink
	events uint64
}

// forkSink is a telemetry engine sink: a branch's continues a Fork of
// the prefix's, so it knows the jobs that arrived before the branch.
type forkSink interface {
	obs.Sink
	Fork() obs.Sink
}

// Prefix replays tr under cfg and pol on an engine of its own for the
// given number of events (or to the end of the replay), observed by
// cfg.Sink, the telemetry sink and a prefix flight recorder, seals it,
// and returns the request of a branch from it: a copy given an Edit is a
// Fan request of this plan (Fan's "Branches" rule). The prefix's events
// are added to the run once, here.
func (p *Plan) Prefix(cfg engine.Config, tr *trace.Trace, pol sched.Policy, events uint64) (Request, error) {
	p.run.SetPhase("prefix")
	pre := &prefix{}
	rq := Request{Cfg: cfg, Trace: tr, Policy: pol, pre: pre}
	rq.Cfg.Sink = nil
	if p.Recording() {
		pre.rec = obs.NewFlightRecorder(p.Flight)
		cfg.Sink = obs.Tee(cfg.Sink, pre.rec)
	}
	if tel := p.Telemetry; tel != nil {
		pre.tel = tel.EngineSink().(forkSink)
		cfg.Sink = obs.Tee(cfg.Sink, pre.tel)
	}
	e, err := engine.New(cfg, tr, pol)
	if err == nil {
		_, err = e.RunEvents(events)
	}
	if err == nil {
		pre.snap, err = e.Snapshot()
	}
	if err != nil {
		return Request{}, err
	}
	pre.events = pre.snap.Events()
	p.run.AddEvents(pre.events)
	p.run.SetPhase("branches")
	return rq, nil
}

// branch is the arm-edit-run variation of run-or-fold. The fork goes
// back to the pool whether or not its edit and run succeed.
func (r *pending) branch(sink obs.Sink) (res *engine.Result, err error) {
	p := r.p
	f, err := p.pool.Fork(r.pre.snap, engine.ForkOptions{Sink: sink})
	if err != nil {
		return nil, err
	}
	if r.Edit != nil {
		err = r.Edit(f)
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

// One is the one-cell plan behind a single replay whose caller reads the
// per-job outcomes — `simmr -trace` with -v or -json, and `trace run`;
// Totals serves the rest. cfg.Sink is the request's sink (it does not
// fire on a hit), the Result is the caller's, and live progress comes
// from the run handle's engine hook, which counts the replay's event
// stream, rather than from cell completions. A replay with no sink of
// any kind — no cfg.Sink, Runs or Telemetry — splits at quiescent
// instants over Workers cores (0: all of them; DESIGN.md §7).
func One(o Options, kind runs.Kind, cfg engine.Config, tr *trace.Trace, pol sched.Policy) (res *engine.Result, hit bool, err error) {
	return one(o, kind, cfg, tr, pol, false)
}

// Totals is One for a caller that reads the Result's totals only — its
// Events, Makespan and peaks — as `simmr -trace` does for its summary
// line, or none of it, as `trace explain` does (its report comes from its
// sink). Unless the plan itself reads the per-job outcomes (a
// cache stores them, a flight recorder dumps a deadline miss), the replay
// keeps none and the Result's Jobs is nil: a trace's outcome array costs
// its allocation and a store per job that nobody would read (DESIGN.md
// §5, "Lifetime"). A cache hit's Result carries its jobs as ever.
func Totals(o Options, kind runs.Kind, cfg engine.Config, tr *trace.Trace, pol sched.Policy) (res *engine.Result, hit bool, err error) {
	return one(o, kind, cfg, tr, pol, true)
}

func one(o Options, kind runs.Kind, cfg engine.Config, tr *trace.Trace, pol sched.Policy, totals bool) (res *engine.Result, hit bool, err error) {
	run := Run{Kind: kind, Policy: pol, Traces: []*trace.Trace{tr}, Replays: 1}
	if o.Runs != nil {
		run.Config = fmt.Sprintf("map_slots=%d reduce_slots=%d", cfg.MapSlots, cfg.ReduceSlots)
	}
	p := Begin(o, run)
	p.single = p.run != nil
	sink := cfg.Sink
	r := pending{Request: Request{Cfg: cfg, Trace: tr, Policy: pol, Label: string(kind), Sink: func() obs.Sink { return sink }},
		p: p, keep: true, split: true, totals: totals}
	hit, err = r.replay(func(r *engine.Result) { res = r })
	return res, hit, p.End(err)
}
