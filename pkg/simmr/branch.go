package simmr

import (
	"context"
	"fmt"
	"sort"
	"time"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/parallel"
	"simmr/internal/runs"
	"simmr/internal/sched"
)

// WhatIf is one branch of a BranchSet: a set of edits applied to a
// forked engine at the branch point, before the branch runs to
// completion. All fields are optional; a zero WhatIf replays the
// unmodified suffix (useful as the control branch).
type WhatIf struct {
	// Name labels the branch in error messages; defaults to its index.
	Name string
	// Policy, when set, replaces the scheduling policy at the branch
	// point (Engine.SetPolicy): active jobs are re-admitted under it as
	// if they had just arrived. Use a fresh instance per branch for
	// stateful policies.
	Policy Policy
	// SetDeadlines moves the deadlines of not-yet-arrived jobs, keyed by
	// job ID (0 removes a deadline). Applied in ascending ID order.
	SetDeadlines map[int]float64
	// InjectJobs adds job arrivals at or after the branch point, applied
	// in slice order. Templates are treated read-only; IDs must not
	// collide with the trace's or each other's.
	InjectJobs []*Job
	// Mutate, when set, runs after the edits above with the paused
	// branch engine — the escape hatch for edits the declarative fields
	// don't cover (e.g. deadline scaling computed from Engine.Now).
	Mutate func(*Engine) error
	// Sink observes this branch's own event suffix and RunEnd counters.
	// The shared prefix is observed once, by BranchSetConfig.Config.Sink.
	Sink Sink
	// SinkFactory, when set, overrides Sink: it is called on the branch's
	// worker goroutine after the shared prefix has been sealed, so it can
	// fork prefix-fed stateful sinks. An attribution sink observing the
	// prefix (via Config.Sink) hands each branch a continuation with
	// `func() simmr.Sink { return prefixAttr.Fork() }` — the branch then
	// explains its full run, prefix included, not just the suffix.
	SinkFactory SinkFactory
}

// BranchSetConfig parameterizes a BranchSet fan-out.
type BranchSetConfig struct {
	// Config is the engine configuration for the prefix and every
	// branch. Config.Sink observes the shared prefix only; per-branch
	// streams go to WhatIf.Sink. A zero Config means
	// DefaultReplayConfig, like ReplaySpec.
	Config ReplayConfig
	// Trace is the replayed workload, shared read-only.
	Trace *Trace
	// Policy schedules the prefix and (unless a branch overrides it)
	// the branches; nil means FIFO. The built-in policy values are
	// stateless and shared safely by the prefix and every branch.
	Policy Policy
	// PolicyFactory, when set, builds the policy instance the prefix
	// runs under, overriding Policy; branches inherit that instance
	// unless their WhatIf.Policy replaces it.
	PolicyFactory func() Policy
	// BranchEvents is the branch point as a total-event count: the
	// prefix runs until this many events have fired (or the replay
	// ends, whichever is first), then every branch forks there. 0 forks
	// at t=0 with all arrivals still pending.
	BranchEvents uint64
	// Workers bounds concurrent branches: 0 means one per CPU, 1 forces
	// the serial path. Results are in branch order regardless.
	Workers int
	// Progress, when set, receives bounded-rate (done, total) callbacks.
	Progress ProgressFunc
	// Telemetry, when set, records the fan-out into the sharded metrics
	// registry: fork counts and copied-vs-shared bytes (ForkDone), each
	// branch's wall time and suffix events/sec (ReplayDone), engine
	// pool reuse, and every branch's event stream.
	Telemetry *Telemetry
	// Runs, when set, registers the fan-out in the ops-plane run
	// registry (kind "branch", phases "prefix" then "branches") — see
	// SweepConfig.Runs.
	Runs *RunRegistry
	// Flight, when Runs is set, records the shared prefix into a flight
	// ring of this size and hands each branch its own Fork() of it, so a
	// branch post-mortem shows the full history — prefix events
	// included, exactly as that branch's engine inherited them. -1
	// selects the default size; 0 disables.
	Flight int
}

// BranchSet answers K what-if questions for the price of one shared
// prefix: it replays Config/Trace/Policy up to BranchEvents once, seals
// the engine, and fans the branches out across a worker pool — each
// branch a pooled copy-on-write fork (cloned event queue, lazily copied
// job state) that applies its edits and runs to completion. Results
// come back in branch order; every branch result is byte-identical to
// a from-scratch replay paused at the same event with the same edits
// (the engine's fork differential suite enforces this). The first
// failing branch's error (lowest index) is returned.
func BranchSet(ctx context.Context, cfg BranchSetConfig, branches []WhatIf) ([]*ReplayResult, error) {
	if cfg.Trace == nil || len(cfg.Trace.Jobs) == 0 {
		return nil, fmt.Errorf("simmr: branch set: %w", ErrEmptyWorkload)
	}
	if len(branches) == 0 {
		return nil, nil
	}
	mkPolicy := cfg.PolicyFactory
	if mkPolicy == nil {
		p := cfg.Policy
		if p == nil {
			p = sched.FIFO{}
		}
		mkPolicy = func() Policy { return p }
	}
	ecfg := cfg.Config
	sink := ecfg.Sink
	ecfg.Sink = nil
	if ecfg == (ReplayConfig{}) {
		ecfg = DefaultReplayConfig()
	}
	ecfg.Sink = sink

	tel := cfg.Telemetry
	if tel != nil {
		tel.ExpectRuns(len(branches))
		ecfg.Sink = obs.Tee(ecfg.Sink, tel.EngineSink())
	}

	run := beginRun(cfg.Runs, runs.KindBranch, cfg.Trace, cfg.Policy,
		fmt.Sprintf("branches=%d branch_events=%d", len(branches), cfg.BranchEvents))
	run.SetPhase("prefix")
	fail := func(err error) ([]*ReplayResult, error) {
		run.End(err)
		return nil, err
	}
	// The prefix recorder observes the shared history once; each branch
	// gets its own Fork() below, continuing from the sealed prefix the
	// way attribution sinks do.
	var prefixRec *obs.FlightRecorder
	if run != nil && cfg.Flight != 0 {
		prefixRec = obs.NewFlightRecorder(cfg.Flight)
		ecfg.Sink = obs.Tee(ecfg.Sink, prefixRec)
	}

	// Shared prefix: one replay to the branch point, sealed.
	prefix, err := engine.New(ecfg, cfg.Trace, mkPolicy())
	if err != nil {
		return fail(fmt.Errorf("simmr: branch set: prefix: %w", err))
	}
	if _, err := prefix.RunEvents(cfg.BranchEvents); err != nil {
		return fail(fmt.Errorf("simmr: branch set: prefix: %w", err))
	}
	snap, err := prefix.Snapshot()
	if err != nil {
		return fail(fmt.Errorf("simmr: branch set: %w", err))
	}
	prefixEvents := snap.Events()
	run.AddEvents(prefixEvents)
	run.SetPhase("branches")

	pool := &engine.Shared
	if tel != nil {
		pool = pool.Observed(tel.PoolGet)
	}
	results, err := parallel.MapProgress(ctx, cfg.Workers, len(branches), run.ProgressFunc(cfg.Progress), func(_ context.Context, i int) (*ReplayResult, error) {
		b := &branches[i]
		fail := func(err error) (*ReplayResult, error) {
			return nil, fmt.Errorf("simmr: branch %d (%s): %w", i, branchName(b, i), err)
		}
		bsink := b.Sink
		if b.SinkFactory != nil {
			bsink = b.SinkFactory()
		}
		opts := engine.ForkOptions{Sink: bsink}
		flightDone := func(*ReplayResult, error) {}
		if prefixRec != nil {
			var rec *obs.FlightRecorder
			rec, flightDone = attachFlight(run, prefixRec.Fork(), branchName(b, i))
			opts.Sink = obs.Tee(opts.Sink, rec)
		}
		var start time.Time
		if tel != nil {
			opts.Sink = obs.Tee(opts.Sink, tel.EngineSink())
			start = time.Now()
		}
		f, err := pool.Fork(snap, opts)
		if err != nil {
			return fail(err)
		}
		if b.Policy != nil {
			if err := f.SetPolicy(b.Policy); err != nil {
				return fail(err)
			}
		}
		// Map iteration order is random; apply in ascending job ID so a
		// branch is reproducible run to run.
		ids := make([]int, 0, len(b.SetDeadlines))
		for id := range b.SetDeadlines {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if err := f.SetDeadline(id, b.SetDeadlines[id]); err != nil {
				return fail(err)
			}
		}
		for _, j := range b.InjectJobs {
			if err := f.InjectJob(j); err != nil {
				return fail(err)
			}
		}
		if b.Mutate != nil {
			if err := b.Mutate(f); err != nil {
				return fail(err)
			}
		}
		res, err := f.Run()
		flightDone(res, err)
		if err != nil {
			return fail(err)
		}
		if tel != nil {
			st := f.ForkStats()
			tel.ForkDone(st.BytesCopied, st.BytesShared)
			// Branch throughput covers the suffix this branch actually
			// simulated, not the shared prefix it inherited.
			tel.ReplayDone(time.Since(start), res.Events-prefixEvents)
		}
		pool.Put(f)
		// Run totals count each branch's own suffix; the shared prefix
		// was added once, before the fan-out.
		run.AddEvents(res.Events - prefixEvents)
		run.AddJobs(uint64(len(res.Jobs)))
		return res, nil
	})
	run.End(err)
	return results, err
}

func branchName(b *WhatIf, i int) string {
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("branch-%d", i)
}
