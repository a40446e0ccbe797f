package simmr

import (
	"context"
	"fmt"

	"simmr/internal/engine"
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
	// Mutate, when set, runs after the policy swap with the paused branch
	// engine: Engine.SetDeadline moves a deadline of a job still to
	// arrive, Engine.Now reads the branch point's clock.
	Mutate func(*Engine) error
	// SinkFactory, when set, builds the sink that observes this branch's
	// own event suffix and RunEnd counters; the shared prefix is observed
	// once, by BranchSetConfig.Config.Sink. It is called on the branch's
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
	// streams go to WhatIf.SinkFactory. A zero Config means
	// DefaultReplayConfig, like ReplaySpec.
	Config ReplayConfig
	// Trace is the replayed workload, shared read-only.
	Trace *Trace
	// PolicyFactory builds the policy the prefix runs under; nil means
	// FIFO. Every branch continues that one instance unless its
	// WhatIf.Policy replaces it, so it must be a policy whose decisions
	// are a pure function of its configuration (it has a stable
	// fingerprint: the built-in values); a stateful one (DynamicPriority)
	// is refused.
	PolicyFactory func() Policy
	// BranchEvents is the branch point as a total-event count: the
	// prefix runs until this many events have fired (or the replay
	// ends, whichever is first), then every branch forks there. 0 forks
	// at t=0 with all arrivals still pending.
	BranchEvents uint64
	// Workers bounds concurrent branches: 0 means one per CPU, 1 forces
	// the serial path. Results are in branch order regardless.
	Workers int
	// Telemetry, when set, records the fan-out into the metrics
	// registry: fork counts and bytes copied (ForkDone), each
	// branch's wall time (ReplayDone), engine pool reuse, and every
	// branch's event stream.
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
// prefix: it replays Config/Trace/PolicyFactory up to BranchEvents once, seals
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
	var policy Policy = sched.FIFO{}
	if cfg.PolicyFactory != nil {
		policy = cfg.PolicyFactory()
	}
	if _, ok := sched.FingerprintOf(policy); !ok {
		return nil, fmt.Errorf("simmr: branch set: prefix policy %s has no stable fingerprint: every branch would share its state", policy.Name())
	}
	ecfg := cfg.Config
	sink := ecfg.Sink
	ecfg.Sink = nil
	if ecfg == (ReplayConfig{}) {
		ecfg = DefaultReplayConfig()
	}
	ecfg.Sink = sink

	p := plan.Begin(
		plan.Options{Workers: cfg.Workers, Telemetry: cfg.Telemetry, Runs: cfg.Runs, Flight: cfg.Flight},
		plan.Run{Kind: runs.KindBranch, Policy: policy, Traces: []*Trace{cfg.Trace}, Replays: len(branches),
			Config: fmt.Sprintf("branches=%d branch_events=%d", len(branches), cfg.BranchEvents)})
	// Shared prefix: one replay to the branch point, sealed. Each branch
	// is a request that forks from it.
	rq, err := p.Prefix(ecfg, cfg.Trace, policy, cfg.BranchEvents)
	if err != nil {
		return nil, p.End(fmt.Errorf("simmr: branch set: prefix: %w", err))
	}
	rqs := make([]plan.Request, len(branches))
	for i := range rqs {
		rqs[i] = rq
		rqs[i].Edit, rqs[i].Label, rqs[i].Sink = branches[i].apply, branchName(&branches[i], i), branches[i].SinkFactory
	}
	results := make([]*ReplayResult, len(branches))
	if err := p.End(p.Fan(ctx, plan.Fanout{Requests: rqs, Keep: true,
		Fold: func(i int, res *engine.Result) { results[i] = res },
		Wrap: func(i int, err error) error {
			return fmt.Errorf("simmr: branch %d (%s): %w", i, branchName(&branches[i], i), err)
		},
	})); err != nil {
		return nil, err
	}
	return results, nil
}

// apply makes the branch's edits on its paused fork, in the documented
// order: policy, then Mutate.
func (b *WhatIf) apply(f *Engine) error {
	var err error
	if b.Policy != nil {
		err = f.SetPolicy(b.Policy)
	}
	if err == nil && b.Mutate != nil {
		err = b.Mutate(f)
	}
	return err
}

func branchName(b *WhatIf, i int) string {
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("branch-%d", i)
}
