package simmr

import (
	"context"
	"fmt"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/plan"
	"simmr/internal/runs"
	"simmr/internal/sched"
)

// ReplaySpec is one unit of a ReplayBatchCfg: a trace replayed under a
// policy and engine configuration. The zero-value Config means
// DefaultReplayConfig (Config.Sink may be set on an otherwise-zero
// Config without losing the defaults); a nil Policy means FIFO. Traces
// may be shared between specs (and with the caller) — the engine
// treats them as read-only. Config.Sink must NOT be shared between
// specs: sinks are single-goroutine, one per engine (obs.Sink).
type ReplaySpec struct {
	// Name labels the spec in error messages; defaults to the trace name.
	Name   string
	Config ReplayConfig
	Trace  *Trace
	// Policy must be stateless if the same value is reused across specs
	// (all built-ins except DynamicPriority are); give each spec its own
	// instance otherwise.
	Policy Policy
}

// BatchConfig parameterizes ReplayBatchCfg beyond the specs themselves.
type BatchConfig struct {
	// Workers bounds concurrent replays: 0 means one worker per CPU, 1
	// forces the serial path. Results are in spec order regardless, and
	// each is its own spec's replay whichever specs shared one
	// (ReplayBatchCfg).
	Workers int
	// Telemetry, when set, records the replays the batch simulates into
	// the metrics registry: engine events and duration histograms,
	// per-replay wall time and events/sec, and the engine pool's reuse
	// hit rate. A spec another spec's replay answers adds nothing.
	Telemetry *Telemetry
	// Runs, when set, registers the batch in the ops-plane run registry
	// (kind "batch") — see SweepConfig.Runs.
	Runs *RunRegistry
	// Flight, when Runs is set, attaches a flight recorder of this ring
	// size to every replay the batch simulates (-1 selects the default;
	// 0 disables) — see SweepConfig.Flight.
	Flight int
	// Cache, when set, memoizes specs through the content-addressed
	// replay result cache — see SweepConfig.Cache for the semantics
	// (cached specs skip the engine and their sinks do not fire).
	Cache *Cache
}

// ReplayBatchCfg replays N independent simulations — any mix of traces,
// policies, and configurations — concurrently on a bounded worker pool.
// Results come back in spec order, each its own spec's replay, whichever
// specs shared one by the one fan-out scheduler's rules (plan.Plan.Fan;
// DESIGN.md §7, "One fan-out scheduler"); the first failing spec's error
// (lowest index) is returned.
func ReplayBatchCfg(ctx context.Context, bcfg BatchConfig, specs []ReplaySpec) ([]*ReplayResult, error) {
	traces := make([]*Trace, len(specs))
	reqs := make([]plan.Request, len(specs))
	for i := range specs {
		spec := &specs[i]
		if spec.Trace == nil || len(spec.Trace.Jobs) == 0 {
			return nil, fmt.Errorf("simmr: replay batch spec %d (%s): %w", i, specName(spec), ErrEmptyWorkload)
		}
		traces[i] = spec.Trace
		// A spec that only sets an observability sink still gets the
		// default cluster configuration.
		cfg := spec.Config
		cfg.Sink = nil
		if cfg == (ReplayConfig{}) {
			cfg = engine.DefaultConfig()
		}
		policy := spec.Policy
		if policy == nil {
			policy = sched.FIFO{}
		}
		reqs[i] = plan.Request{Cfg: cfg, Trace: spec.Trace, Policy: policy, Label: specName(spec)}
		if sink := spec.Config.Sink; sink != nil {
			reqs[i].Sink = func() obs.Sink { return sink }
		}
	}
	p := plan.Begin(
		plan.Options{Workers: bcfg.Workers, Telemetry: bcfg.Telemetry, Runs: bcfg.Runs, Flight: bcfg.Flight, Cache: bcfg.Cache},
		plan.Run{Kind: runs.KindBatch, Traces: traces, Replays: len(specs), Config: fmt.Sprintf("specs=%d", len(specs))})
	results := make([]*ReplayResult, len(specs))
	err := p.Fan(ctx, plan.Fanout{
		Requests: reqs,
		Keep:     true,
		Fold:     func(i int, res *engine.Result) { results[i] = res },
		Wrap: func(i int, err error) error {
			return fmt.Errorf("simmr: replay batch spec %d (%s): %w", i, specName(&specs[i]), err)
		},
	})
	if err = p.End(err); err != nil {
		return nil, err
	}
	return results, nil
}

func specName(s *ReplaySpec) string {
	if s.Name != "" {
		return s.Name
	}
	if s.Trace != nil && s.Trace.Name != "" {
		return s.Trace.Name
	}
	return "unnamed"
}
