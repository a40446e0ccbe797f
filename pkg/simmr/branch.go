package simmr

import (
	"context"
	"fmt"
	"sort"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/plan"
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
	// Telemetry, when set, records the fan-out into the metrics
	// registry: fork counts and bytes copied (ForkDone), each
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
// branch a pooled fork (cloned pending events, live job state and
// outcomes so far) that applies its edits and runs to completion. Results
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
	policy := cfg.Policy
	if cfg.PolicyFactory != nil {
		policy = cfg.PolicyFactory()
	} else if policy == nil {
		policy = sched.FIFO{}
	}
	ecfg := cfg.Config
	sink := ecfg.Sink
	ecfg.Sink = nil
	if ecfg == (ReplayConfig{}) {
		ecfg = DefaultReplayConfig()
	}
	ecfg.Sink = sink

	p := plan.Begin(
		plan.Options{Workers: cfg.Workers, Progress: cfg.Progress, Telemetry: cfg.Telemetry, Runs: cfg.Runs, Flight: cfg.Flight},
		plan.Run{Kind: runs.KindBranch, Policy: cfg.Policy, Traces: []*Trace{cfg.Trace}, Replays: len(branches),
			Config: fmt.Sprintf("branches=%d branch_events=%d", len(branches), cfg.BranchEvents)})
	// Shared prefix: one replay to the branch point, sealed.
	if err := p.Prefix(ecfg, cfg.Trace, policy, cfg.BranchEvents); err != nil {
		return nil, p.End(fmt.Errorf("simmr: branch set: prefix: %w", err))
	}
	results := make([]*ReplayResult, len(branches))
	err := p.End(p.Each(ctx, len(branches), func(i int) error {
		b := &branches[i]
		pc := plan.Cell{Edit: b.apply, Sink: b.SinkFactory}
		if pc.Sink == nil {
			pc.Sink = func() obs.Sink { return b.Sink }
		}
		if p.Recording() {
			pc.Label = branchName(b, i)
		}
		if err := p.Branch(pc, func(res *engine.Result) { results[i] = res }); err != nil {
			return fmt.Errorf("simmr: branch %d (%s): %w", i, branchName(b, i), err)
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return results, nil
}

// apply makes the branch's edits on its paused fork, in the documented
// order: policy, deadlines, injected jobs, Mutate.
func (b *WhatIf) apply(f *Engine) error {
	if b.Policy != nil {
		if err := f.SetPolicy(b.Policy); err != nil {
			return err
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
			return err
		}
	}
	for _, j := range b.InjectJobs {
		if err := f.InjectJob(j); err != nil {
			return err
		}
	}
	if b.Mutate != nil {
		return b.Mutate(f)
	}
	return nil
}

func branchName(b *WhatIf, i int) string {
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("branch-%d", i)
}
