package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"simmr/internal/engine"
	"simmr/internal/metrics"
	"simmr/internal/parallel"
	"simmr/internal/plan"
	"simmr/internal/rcache"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/telemetry"
	"simmr/internal/trace"
	"simmr/internal/workload"
)

// DeadlineSweepConfig parameterizes the Figure 7/8 scheduler-comparison
// experiments.
type DeadlineSweepConfig struct {
	// InterArrivalMeans is the x-axis: mean exponential inter-arrival
	// times in seconds (paper: 1 .. 100000, log scale).
	InterArrivalMeans []float64
	// DeadlineFactors are the df values (one panel each; paper Figure 7
	// uses 1 / 1.5 / 3, Figure 8 uses 1.1 / 1.5 / 2).
	DeadlineFactors []float64
	// Repetitions per point (paper: 400).
	Repetitions int
	// JobsPerRun bounds the number of jobs per simulation (Figure 7
	// permutes the 18 profiled jobs; Figure 8 draws this many synthetic
	// jobs).
	JobsPerRun int
	Seed       int64
	// Progress, when set, receives bounded-rate (done cells, total
	// cells) callbacks while the sweep runs — parallel.ProgressFunc's
	// delivery contract. A full paper-scale sweep is minutes of work, so
	// cmd/experiments wires this to a stderr ticker.
	Progress parallel.ProgressFunc
	// Telemetry, when set, records every replay of the sweep into the
	// metrics registry (each cell's events, the pool's reuse hit rate,
	// per-replay wall times) — what cmd/experiments -debug-addr scrapes
	// during the longest sweeps.
	Telemetry *telemetry.SimMetrics
	// Cache, when set, memoizes each repetition's two replays through
	// the content-addressed replay result cache. Every repetition
	// generates its own trace, so within a single sweep hits are rare
	// (≈0); the payoff is across invocations — the generators are
	// seed-deterministic, so rerunning the same figure with the same
	// parameters against a disk cache serves every replay from the
	// store. CacheHits on the result reports how many replays were.
	Cache *rcache.Cache
}

// DefaultFigure7Config returns the paper's Figure 7 sweep. Repetitions
// default to 400 as in the paper; lower it for quick runs.
func DefaultFigure7Config() DeadlineSweepConfig {
	return DeadlineSweepConfig{
		InterArrivalMeans: []float64{1, 10, 100, 1000, 10000, 100000},
		DeadlineFactors:   []float64{1, 1.5, 3},
		Repetitions:       400,
		Seed:              1,
	}
}

// DefaultFigure8Config returns the paper's Figure 8 sweep over the
// synthetic Facebook workload.
func DefaultFigure8Config() DeadlineSweepConfig {
	return DeadlineSweepConfig{
		InterArrivalMeans: []float64{1, 10, 100, 1000, 10000, 100000},
		DeadlineFactors:   []float64{1.1, 1.5, 2},
		Repetitions:       400,
		JobsPerRun:        30,
		Seed:              1,
	}
}

// DeadlineSweepPoint is one (deadline factor, inter-arrival mean) cell:
// the mean relative-deadline-exceeded utility for both schedulers.
type DeadlineSweepPoint struct {
	DeadlineFactor   float64
	InterArrivalMean float64
	MaxEDF           float64
	MinEDF           float64
}

// DeadlineSweepResult is a full Figure 7 or Figure 8 reproduction.
type DeadlineSweepResult struct {
	Name   string
	Config DeadlineSweepConfig
	Points []DeadlineSweepPoint
	// CacheHits counts replays served from Config.Cache (out of
	// cells × repetitions × 2 total); zero when no cache was set.
	CacheHits uint64
}

// Figure7 compares MaxEDF and MinEDF on the real testbed workload: the
// 18 profiled jobs (6 applications × 3 dataset sizes) arriving in random
// order with exponential inter-arrival times and deadlines uniform in
// [T_J, df·T_J]. Expected shape (paper §V-B): the two policies coincide
// at df = 1; MinEDF wins increasingly as df grows; the utility decreases
// with the arrival rate; a non-preemption "bump" appears near
// inter-arrival ≈ 100 s at df = 1.
func Figure7(cfg DeadlineSweepConfig) (*DeadlineSweepResult, error) {
	pool, baselines, err := testbedJobPool(cfg.Seed)
	if err != nil {
		return nil, err
	}
	gen := func(rep int, rng *rand.Rand, meanIA float64) (*trace.Trace, []float64) {
		// Equally probable random permutation of the profiled jobs.
		perm := rng.Perm(len(pool))
		tr := &trace.Trace{Name: "fig7"}
		tj := make([]float64, 0, len(pool))
		t := 0.0
		for _, pi := range perm {
			tr.Jobs = append(tr.Jobs, &trace.Job{Arrival: t, Template: pool[pi]})
			tj = append(tj, baselines[pi])
			t += rng.ExpFloat64() * meanIA
		}
		return tr, tj
	}
	return deadlineSweep("figure7-testbed", cfg, gen)
}

// Figure8 compares the schedulers on the synthetic Facebook workload
// (§V-C): task durations from the fitted LogNormal distributions.
// Expected shape: MinEDF significantly outperforms MaxEDF, consistent
// with the testbed-trace results.
func Figure8(cfg DeadlineSweepConfig) (*DeadlineSweepResult, error) {
	if cfg.JobsPerRun <= 0 {
		cfg.JobsPerRun = 30
	}
	shape := synth.FacebookShape()
	engCfg := EngineConfig()
	gen := func(rep int, rng *rand.Rand, meanIA float64) (*trace.Trace, []float64) {
		tr := &trace.Trace{Name: "fig8"}
		tj := make([]float64, 0, cfg.JobsPerRun)
		t := 0.0
		for i := 0; i < cfg.JobsPerRun; i++ {
			tpl, err := shape.Generate(rng)
			if err != nil {
				// Shape is statically valid; a failure here is a bug.
				panic(err)
			}
			tr.Jobs = append(tr.Jobs, &trace.Job{Arrival: t, Template: tpl})
			base, err := fullClusterTime(tpl, engCfg)
			if err != nil {
				panic(err)
			}
			tj = append(tj, base)
			t += rng.ExpFloat64() * meanIA
		}
		return tr, tj
	}
	return deadlineSweep("figure8-facebook", cfg, gen)
}

// testbedJobPool profiles the 18 testbed jobs and computes their
// full-cluster baselines T_J.
func testbedJobPool(seed int64) ([]*trace.Template, []float64, error) {
	var pool []*trace.Template
	var baselines []float64
	engCfg := EngineConfig()
	for ai, app := range workload.Apps() {
		for di := range app.Datasets {
			cfg := TestbedConfig(seed + int64(ai*10+di))
			tpl, _, err := profileSpec(cfg, app.Spec(di))
			if err != nil {
				return nil, nil, err
			}
			base, err := fullClusterTime(tpl, engCfg)
			if err != nil {
				return nil, nil, err
			}
			pool = append(pool, tpl)
			baselines = append(baselines, base)
		}
	}
	return pool, baselines, nil
}

// traceGen builds one repetition's workload and the per-job T_J
// baselines (aligned with tr.Jobs order before normalization).
type traceGen func(rep int, rng *rand.Rand, meanInterArrival float64) (*trace.Trace, []float64)

// deadlineSweep fans the (deadline factor, inter-arrival mean) grid
// across the worker pool: every cell seeds its own RNG from the cell
// coordinates (exactly as the serial loop did), so cells are mutually
// independent and the parallel sweep reproduces the serial point values
// bit-for-bit, in grid order. The generated traces share the profiled
// job-pool templates read-only; each repetition's trace and deadlines
// are cell-local.
func deadlineSweep(name string, cfg DeadlineSweepConfig, gen traceGen) (*DeadlineSweepResult, error) {
	if cfg.Repetitions < 1 {
		return nil, fmt.Errorf("experiments: %s: repetitions must be >= 1", name)
	}
	if len(cfg.InterArrivalMeans) == 0 || len(cfg.DeadlineFactors) == 0 {
		return nil, fmt.Errorf("experiments: %s: empty sweep axes", name)
	}
	type cell struct{ df, meanIA float64 }
	cells := make([]cell, 0, len(cfg.DeadlineFactors)*len(cfg.InterArrivalMeans))
	for _, df := range cfg.DeadlineFactors {
		if df < 1 {
			return nil, fmt.Errorf("experiments: %s: deadline factor %v < 1", name, df)
		}
		for _, meanIA := range cfg.InterArrivalMeans {
			cells = append(cells, cell{df, meanIA})
		}
	}
	engCfg := EngineConfig()
	// A paper-scale sweep is 18 cells × 400 repetitions × 2 policies =
	// 14,400 replays, each reduced to one number: the plan holds that to
	// ~one pooled engine per worker and runUtility folds in place.
	p := plan.Begin(plan.Options{Progress: cfg.Progress, Telemetry: cfg.Telemetry, Cache: cfg.Cache},
		plan.Run{Replays: len(cells) * cfg.Repetitions * 2})
	points := make([]DeadlineSweepPoint, len(cells))
	err := p.End(p.Each(context.Background(), len(cells), func(i int) error {
		c := cells[i]
		var sumMax, sumMin float64
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(c.df*1000) ^ int64(c.meanIA)))
		for rep := 0; rep < cfg.Repetitions; rep++ {
			tr, baselines := gen(rep, rng, c.meanIA)
			assignDeadlines(tr, baselines, c.df, rng)
			tr.Normalize()

			maxVal, err := runUtility(p, engCfg, tr, sched.MaxEDF{})
			if err != nil {
				return fmt.Errorf("experiments: %s MaxEDF: %w", name, err)
			}
			minVal, err := runUtility(p, engCfg, tr, sched.MinEDF{})
			if err != nil {
				return fmt.Errorf("experiments: %s MinEDF: %w", name, err)
			}
			sumMax += maxVal
			sumMin += minVal
		}
		points[i] = DeadlineSweepPoint{
			DeadlineFactor:   c.df,
			InterArrivalMean: c.meanIA,
			MaxEDF:           sumMax / float64(cfg.Repetitions),
			MinEDF:           sumMin / float64(cfg.Repetitions),
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return &DeadlineSweepResult{Name: name, Config: cfg, Points: points, CacheHits: p.Hits()}, nil
}

// assignDeadlines draws each job's deadline uniformly in [T_J, df·T_J]
// past its arrival, using the per-job baselines.
func assignDeadlines(tr *trace.Trace, baselines []float64, df float64, rng *rand.Rand) {
	for i, j := range tr.Jobs {
		rel := baselines[i]
		if df > 1 {
			rel += rng.Float64() * baselines[i] * (df - 1)
		}
		j.Deadline = j.Arrival + rel
	}
}

// runUtility is one replay of plan p folded into the relative-deadline-
// exceeded utility while the pooled engine still owns the outcome (or
// read off the cached one). The engine treats the trace as read-only,
// so back-to-back replays need no clone.
func runUtility(p *plan.Plan, cfg engine.Config, tr *trace.Trace, policy sched.Policy) (util float64, err error) {
	_, err = p.Replay(cfg, tr, policy, plan.Cell{}, func(res *engine.Result) { util = utility(res) })
	return util, err
}

// utility is the paper's relative-deadline-exceeded utility (§V-A) of
// one replay, summed over the jobs in outcome order.
func utility(res *engine.Result) float64 {
	var sum float64
	for i := range res.Jobs {
		j := &res.Jobs[i]
		sum += metrics.DeadlineExcess(j.Finish-j.Arrival, j.Deadline-j.Arrival)
	}
	return sum
}

// Render renders one sweep: a block per deadline factor with both
// policies' utilities per inter-arrival mean.
func (r *DeadlineSweepResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "# %s: relative deadline exceeded (mean over %d repetitions)\n",
		r.Name, r.Config.Repetitions)
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			f2(p.DeadlineFactor), f1(p.InterArrivalMean), f3(p.MaxEDF), f3(p.MinEDF),
		})
	}
	return writeRows(w, "deadline_factor\tmean_interarrival_s\tmaxedf\tminedf", rows)
}

// MinEDFWinsAtRelaxedDeadlines reports whether, aggregated over points
// with df > 1, MinEDF's utility is at most MaxEDF's — the paper's
// headline conclusion.
func (r *DeadlineSweepResult) MinEDFWinsAtRelaxedDeadlines() bool {
	var minSum, maxSum float64
	for _, p := range r.Points {
		if p.DeadlineFactor > 1 {
			minSum += p.MinEDF
			maxSum += p.MaxEDF
		}
	}
	return minSum <= maxSum
}
