package simmr

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/parallel"
	"simmr/internal/rcache"
	"simmr/internal/runs"
	"simmr/internal/sched"
)

// ReplaySpec is one unit of a ReplayBatch: a trace replayed under a
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

// ReplayBatch replays N independent simulations — any mix of traces,
// policies, and configurations — concurrently on a bounded worker pool
// (one worker per CPU). Results come back in spec order, identical to
// running each spec serially; the first failing spec's error (lowest
// index) is returned.
func ReplayBatch(specs []ReplaySpec) ([]*ReplayResult, error) {
	return ReplayBatchCtx(context.Background(), 0, specs)
}

// ReplayBatchCtx is ReplayBatch with an explicit worker bound
// (0 = one per CPU, 1 = serial) and cancellation.
func ReplayBatchCtx(ctx context.Context, workers int, specs []ReplaySpec) ([]*ReplayResult, error) {
	return ReplayBatchProgress(ctx, workers, nil, specs)
}

// ReplayBatchProgress is ReplayBatchCtx with bounded-rate completion
// reporting: progress (when non-nil) receives (done specs, total
// specs) callbacks from the worker pool under the parallel package's
// rate-limit contract.
func ReplayBatchProgress(ctx context.Context, workers int, progress ProgressFunc, specs []ReplaySpec) ([]*ReplayResult, error) {
	return ReplayBatchCfg(ctx, BatchConfig{Workers: workers, Progress: progress}, specs)
}

// BatchConfig parameterizes ReplayBatchCfg beyond the specs themselves.
type BatchConfig struct {
	// Workers bounds concurrent replays: 0 means one worker per CPU, 1
	// forces the serial path. Results are in spec order regardless.
	Workers int
	// Progress, when set, receives bounded-rate (done, total) callbacks.
	Progress ProgressFunc
	// Telemetry, when set, records the batch into the sharded metrics
	// registry: per-spec engine events and duration histograms (one
	// lock-free sink shard per spec), per-replay wall time and
	// events/sec, and the engine pool's reuse hit rate.
	Telemetry *Telemetry
	// Runs, when set, registers the batch in the ops-plane run registry
	// (kind "batch") — see SweepConfig.Runs.
	Runs *RunRegistry
	// Flight, when Runs is set, attaches a flight recorder of this ring
	// size to every spec's engine (-1 selects the default; 0 disables) —
	// see SweepConfig.Flight.
	Flight int
	// Cache, when set, memoizes specs through the content-addressed
	// replay result cache — see SweepConfig.Cache for the semantics
	// (cached specs skip the engine and their sinks do not fire).
	Cache *Cache
}

// ReplayBatchCfg is the fully configurable batch entry point; the other
// ReplayBatch variants are shorthands for it.
func ReplayBatchCfg(ctx context.Context, bcfg BatchConfig, specs []ReplaySpec) ([]*ReplayResult, error) {
	for i := range specs {
		if specs[i].Trace == nil || len(specs[i].Trace.Jobs) == 0 {
			return nil, fmt.Errorf("simmr: replay batch spec %d (%s): %w", i, specName(&specs[i]), ErrEmptyWorkload)
		}
	}
	// Specs run on the process-wide engine pool: the batch holds ~one
	// engine per worker regardless of how many specs it replays, and
	// finds them warm when the session replayed these traces before.
	// Each spec's Result is the caller's to keep, so this is Run, not Fold.
	pool := &engine.Shared
	tel := bcfg.Telemetry
	if tel != nil {
		tel.ExpectRuns(len(specs))
		pool = pool.Observed(tel.PoolGet)
	}
	// A batch replays few distinct traces under many configurations:
	// each is hashed once, here, not once per spec on the workers.
	var keyers map[*Trace]rcache.Keyer
	if bcfg.Cache != nil {
		keyers = make(map[*Trace]rcache.Keyer)
		for i := range specs {
			if _, seen := keyers[specs[i].Trace]; !seen {
				keyers[specs[i].Trace] = bcfg.Cache.Keyer(specs[i].Trace)
			}
		}
	}
	run := beginRun(bcfg.Runs, runs.KindBatch, batchTrace(specs), nil,
		fmt.Sprintf("specs=%d", len(specs)))
	run.SetPhase("replay")
	var hits atomic.Uint64
	results, err := parallel.MapProgress(ctx, bcfg.Workers, len(specs), run.ProgressFunc(bcfg.Progress), func(_ context.Context, i int) (*ReplayResult, error) {
		spec := &specs[i]
		cfg := spec.Config
		// A spec that only sets an observability sink still gets the
		// default cluster configuration.
		sink := cfg.Sink
		cfg.Sink = nil
		if cfg == (ReplayConfig{}) {
			cfg = engine.DefaultConfig()
		}
		cfg.Sink = sink
		policy := spec.Policy
		if policy == nil {
			policy = sched.FIFO{}
		}
		// Consult the cache before claiming an engine (a cached spec
		// never simulates, so its sinks do not fire).
		key, keyOK := keyers[spec.Trace].Key(cfg, policy)
		if keyOK {
			if res, ok := bcfg.Cache.Get(key); ok {
				hits.Add(1)
				run.AddCached(1)
				run.AddJobs(uint64(len(res.Jobs)))
				return res, nil
			}
		}
		rec, flightDone := runFlight(run, bcfg.Flight, specName(spec))
		if rec != nil {
			cfg.Sink = obs.Tee(cfg.Sink, rec)
		}
		var start time.Time
		if tel != nil {
			// Each spec's telemetry sink writes its own registry shard;
			// Tee keeps a spec-provided sink observing too.
			cfg.Sink = obs.Tee(cfg.Sink, tel.EngineSink())
			start = time.Now()
		}
		res, err := pool.Run(cfg, spec.Trace, policy)
		flightDone(res, err)
		if err != nil {
			return nil, fmt.Errorf("simmr: replay batch spec %d (%s): %w", i, specName(spec), err)
		}
		if keyOK {
			bcfg.Cache.Put(key, res)
		}
		if tel != nil {
			tel.ReplayDone(time.Since(start), res.Events)
		}
		run.AddEvents(res.Events)
		run.AddJobs(uint64(len(res.Jobs)))
		return res, nil
	})
	if h := hits.Load(); h > 0 {
		// Cached specs never replayed: rebalance the expected-run count
		// and mark a fully memoized batch with its own terminal phase.
		if tel != nil {
			tel.ExpectRuns(-int(h))
		}
		if err == nil && h == uint64(len(specs)) {
			run.SetPhase("cached")
		}
	}
	run.End(err)
	return results, err
}

// batchTrace names a batch's workload for the run registry: the shared
// trace when every spec replays the same one, nil (anonymous) for a
// mixed batch.
func batchTrace(specs []ReplaySpec) *Trace {
	if len(specs) == 0 {
		return nil
	}
	tr := specs[0].Trace
	for i := 1; i < len(specs); i++ {
		if specs[i].Trace != tr {
			return nil
		}
	}
	return tr
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
