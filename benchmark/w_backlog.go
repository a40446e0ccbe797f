package main

import (
	"fmt"
	"math/rand"

	"simmr/pkg/simmr"
)

// backlog is backlog-policies: one operation replays a dense burst
// under each of the paper's three policies on one pooled engine. The
// whole burst is active at once, so the per-slot policy scan over the
// job queue is most of the work; no trace is loaded and nothing is
// cached.
type backlog struct {
	e      env
	trace  *simmr.Trace
	cfg    simmr.ReplayConfig
	pool   simmr.ReplayPool
	want   []uint64 // per policy: digest of a fresh and of an indexed replay
	events uint64   // per operation, summed over the policies
}

// backlogTrace is the burst: n small jobs arriving 50 ms apart with
// tasks minutes long, every one given a deadline between one and three
// times its completion-time upper bound on the whole cluster.
func backlogTrace(n int, seed int64, cfg simmr.ReplayConfig) (*simmr.Trace, error) {
	tr, err := simmr.MultiTenantTrace(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_dead_11e5))
	for _, j := range tr.Jobs {
		up := simmr.JobBounds(j.Template.Profile(), cfg.MapSlots, cfg.ReduceSlots).Up
		j.Deadline = j.Arrival + (1+2*rng.Float64())*up
	}
	return tr, nil
}

func setupBacklog(e env) (workload, error) {
	w := &backlog{e: e, cfg: simmr.DefaultReplayConfig()}
	var err error
	if w.trace, err = backlogTrace(e.sz.backlogJobs, e.seed, w.cfg); err != nil {
		return nil, err
	}
	for _, p := range paperPolicies() {
		fresh, err := simmr.Replay(w.cfg, w.trace, p)
		if err != nil {
			return nil, err
		}
		indexed, err := simmr.Replay(w.cfg, w.trace, simmr.Indexed(p))
		if err != nil {
			return nil, err
		}
		d := resultDigest(fresh)
		if di := resultDigest(indexed); di != d {
			return nil, fmt.Errorf("backlog-policies: %s scan digest %016x, indexed %016x", p.Name(), d, di)
		}
		w.want = append(w.want, d)
		w.events += fresh.Events
	}
	return w, nil
}

func (w *backlog) op(tr *tracer) (output, error) {
	var out output
	for _, p := range paperPolicies() {
		var st callStats
		if tr != nil {
			p = wrapPolicy(p, &st)
		}
		var eng *simmr.Engine
		var res *simmr.ReplayResult
		var err error
		tr.do("engine.Pool.Get", func() { eng, err = w.pool.Get(w.cfg, w.trace, p) })
		if err != nil {
			return out, err
		}
		run := tr.do("engine.Run", func() { res, err = eng.Run() })
		tr.annotate(run, "policy", p.Name())
		tr.annotate(run, "policy_calls", st.calls)
		tr.annotate(run, "policy_ns", st.busy().Nanoseconds())
		tr.do("engine.Pool.Put", func() { w.pool.Put(eng) })
		if err != nil {
			return out, err
		}
		out.results = append(out.results, res)
		out.events += res.Events
	}
	return out, nil
}

func (w *backlog) check(out output) error {
	return checkDigests("backlog-policies", out.results, w.want)
}

func (w *backlog) between() error { return nil }

func (w *backlog) pin() uint64 { return combineDigests(w.want) }

func (w *backlog) target() probeTarget {
	return probeTarget{
		gen:      func() (*simmr.Trace, error) { return backlogTrace(w.e.sz.backlogJobs, w.e.seed, w.cfg) },
		trace:    w.trace,
		cfg:      w.cfg,
		policies: paperPolicies(),
	}
}

func (w *backlog) layers(*tracer, map[string]float64, float64) error { return nil }

func (w *backlog) close() {}
