package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"simmr/internal/cluster"
	"simmr/internal/engine"
	"simmr/internal/metrics"
	"simmr/internal/mumak"
	"simmr/internal/parallel"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/trace"
	"simmr/internal/workload"
)

// This file implements the ablation studies promised in DESIGN.md §6:
// quantifying the design choices that separate SimMR from its baseline
// rather than reproducing a specific paper figure.

// ShuffleAblationRow is one application's replay error under three
// engine variants.
type ShuffleAblationRow struct {
	App string
	// FullErrPct is the signed error of the complete SimMR model.
	FullErrPct float64
	// NoFirstShuffleErrPct drops the non-overlapping first-shuffle
	// treatment (first-wave reduces replay a cold shuffle from their own
	// start).
	NoFirstShuffleErrPct float64
	// NoShuffleErrPct drops shuffle modeling entirely (Mumak's model).
	NoShuffleErrPct float64
}

// ShuffleAblationResult quantifies how much of SimMR's accuracy comes
// from its shuffle modeling (§IV-A: "the main difference between Mumak
// and SimMR is that Mumak omits modeling the shuffle/sort phase").
type ShuffleAblationResult struct {
	Rows                                     []ShuffleAblationRow
	FullSummary, NoFirstSummary, NoneSummary metrics.ErrorSummary
}

// AblationShuffleModel runs each application once on the testbed and
// replays its trace under the three engine variants. The per-application
// columns are independent (each seeds its own testbed run), so they run
// concurrently on the worker pool; rows come back in application order.
func AblationShuffleModel(seed int64) (*ShuffleAblationResult, error) {
	apps := workload.Apps()
	rows, err := parallel.Map(context.Background(), 0, len(apps),
		func(_ context.Context, ai int) (ShuffleAblationRow, error) {
			app := apps[ai]
			cfg := TestbedConfig(seed)
			res, err := runTestbedJob(cfg, cluster.Job{Spec: app.Spec(0)}, sched.FIFO{})
			if err != nil {
				return ShuffleAblationRow{}, err
			}
			actual := res.Jobs[0].CompletionTime()
			tr := profilerFromResult(res)

			row := ShuffleAblationRow{App: app.Name}
			for i, mutate := range []func(*engine.Config){
				func(*engine.Config) {},
				func(c *engine.Config) { c.NoFirstShuffleSpecialCase = true },
				func(c *engine.Config) { c.NoShuffleModel = true },
			} {
				ecfg := EngineConfig()
				mutate(&ecfg)
				rep, err := engine.Run(ecfg, tr, sched.FIFO{})
				if err != nil {
					return ShuffleAblationRow{}, fmt.Errorf("experiments: shuffle ablation: %w", err)
				}
				errPct := metrics.SignedErrorPct(rep.Jobs[0].CompletionTime(), actual)
				switch i {
				case 0:
					row.FullErrPct = errPct
				case 1:
					row.NoFirstShuffleErrPct = errPct
				case 2:
					row.NoShuffleErrPct = errPct
				}
			}
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	out := &ShuffleAblationResult{Rows: rows}
	full := make([]float64, 0, len(rows))
	noFirst := make([]float64, 0, len(rows))
	none := make([]float64, 0, len(rows))
	for _, row := range rows {
		full = append(full, row.FullErrPct)
		noFirst = append(noFirst, row.NoFirstShuffleErrPct)
		none = append(none, row.NoShuffleErrPct)
	}
	out.FullSummary = metrics.SummarizeErrors(full)
	out.NoFirstSummary = metrics.SummarizeErrors(noFirst)
	out.NoneSummary = metrics.SummarizeErrors(none)
	return out, nil
}

// Render writes the per-app error table.
func (r *ShuffleAblationResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "# Shuffle-model ablation: signed replay error vs testbed ground truth\n")
	fmt.Fprintf(w, "# avg |err|: full=%.1f%%  no-first-shuffle=%.1f%%  no-shuffle(Mumak-style)=%.1f%%\n",
		r.FullSummary.AvgPct, r.NoFirstSummary.AvgPct, r.NoneSummary.AvgPct)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.App, f2(row.FullErrPct), f2(row.NoFirstShuffleErrPct), f2(row.NoShuffleErrPct),
		})
	}
	return writeRows(w, "app\tfull_err_pct\tno_first_shuffle_err_pct\tno_shuffle_err_pct", rows)
}

// EstimatorAblationRow reports MinEDF behaviour under one estimator.
type EstimatorAblationRow struct {
	Estimator string
	// Utility is the mean relative-deadline-exceeded value.
	Utility float64
	// MissFraction is the fraction of jobs that missed their deadline.
	MissFraction float64
	// MeanCompletion is the mean relative completion time (resource
	// frugality proxy: conservative sizing finishes earlier but holds
	// more slots).
	MeanCompletion float64
}

// EstimatorAblationResult compares MinEDF sized against the lower bound,
// the bounds midpoint (paper default), and the upper bound.
type EstimatorAblationResult struct {
	Rows        []EstimatorAblationRow
	Repetitions int
}

// AblationMinEDFEstimator sweeps the three estimators over the Facebook
// workload at a moderate arrival rate and deadline factor 1.5.
func AblationMinEDFEstimator(repetitions int, seed int64) (*EstimatorAblationResult, error) {
	if repetitions < 1 {
		return nil, fmt.Errorf("experiments: estimator ablation needs >= 1 repetition")
	}
	shape := synth.FacebookShape()
	engCfg := EngineConfig()

	// One pool task per estimator: each re-seeds its own RNG with the
	// same seed, so all three see identical workloads (the point of the
	// ablation) while running concurrently.
	ests := []sched.Estimator{sched.EstimatorLow, sched.EstimatorAvg, sched.EstimatorUp}
	rows, err := parallel.Map(context.Background(), 0, len(ests),
		func(_ context.Context, ei int) (EstimatorAblationRow, error) {
			policy := sched.MinEDF{Estimate: ests[ei]}
			rng := rand.New(rand.NewSource(seed))
			var utilSum, missSum, complSum float64
			var jobs int
			for rep := 0; rep < repetitions; rep++ {
				tr, baselines := facebookRun(shape, 20, 500, rng, engCfg)
				assignDeadlines(tr, baselines, 1.5, rng)
				tr.Normalize()
				res, err := engine.Run(engCfg, tr, policy)
				if err != nil {
					return EstimatorAblationRow{}, fmt.Errorf("experiments: estimator ablation: %w", err)
				}
				for _, j := range res.Jobs {
					if j.ExceededDeadline() {
						missSum++
					}
					complSum += j.Finish - j.Arrival
					jobs++
				}
				utilSum += utility(res)
			}
			return EstimatorAblationRow{
				Estimator:      ests[ei].String(),
				Utility:        utilSum / float64(repetitions),
				MissFraction:   missSum / float64(jobs),
				MeanCompletion: complSum / float64(jobs),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &EstimatorAblationResult{Rows: rows, Repetitions: repetitions}, nil
}

// facebookRun draws one synthetic workload and its T_J baselines.
func facebookRun(shape *synth.JobShape, n int, meanIA float64, rng *rand.Rand, engCfg engine.Config) (*trace.Trace, []float64) {
	tr := &trace.Trace{Name: "estimator-ablation"}
	var baselines []float64
	t := 0.0
	for i := 0; i < n; i++ {
		tpl, err := shape.Generate(rng)
		if err != nil {
			panic(err) // shape is statically valid
		}
		tr.Jobs = append(tr.Jobs, &trace.Job{Arrival: t, Template: tpl})
		base, err := fullClusterTime(tpl, engCfg)
		if err != nil {
			panic(err)
		}
		baselines = append(baselines, base)
		t += rng.ExpFloat64() * meanIA
	}
	return tr, baselines
}

// Render writes the estimator comparison.
func (r *EstimatorAblationResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "# MinEDF estimator ablation (%d repetitions, Facebook workload, df=1.5)\n", r.Repetitions)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Estimator, f3(row.Utility), f3(row.MissFraction), f1(row.MeanCompletion),
		})
	}
	return writeRows(w, "estimator\tutility\tmiss_fraction\tmean_completion_s", rows)
}

// HeartbeatAblationRow reports the Mumak baseline at one heartbeat
// interval.
type HeartbeatAblationRow struct {
	IntervalSeconds float64
	Events          uint64
	WallSeconds     float64
	ErrPct          float64 // vs SimMR on the same trace
}

// HeartbeatAblationResult shows how the Mumak baseline's cost scales
// with its heartbeat interval — the mechanism behind Figure 6's gap.
type HeartbeatAblationResult struct {
	Rows        []HeartbeatAblationRow
	SimMREvents uint64
}

// AblationMumakHeartbeat replays one production workload through Mumak
// at several heartbeat intervals. Deliberately serial: each row is a
// wall-clock measurement, and concurrent rows would contend for cores
// and corrupt the timings.
func AblationMumakHeartbeat(jobs int, seed int64) (*HeartbeatAblationResult, error) {
	if jobs < 1 {
		return nil, fmt.Errorf("experiments: heartbeat ablation needs >= 1 job")
	}
	rng := rand.New(rand.NewSource(seed))
	tr, err := synth.ProductionTrace(jobs, rng)
	if err != nil {
		return nil, err
	}
	engRes, err := engine.Run(EngineConfig(), tr, sched.FIFO{})
	if err != nil {
		return nil, err
	}
	out := &HeartbeatAblationResult{SimMREvents: engRes.Events}
	for _, interval := range []float64{0.1, 0.3, 1, 3} {
		cfg := mumak.DefaultConfig()
		cfg.HeartbeatInterval = interval
		start := time.Now()
		res, err := mumak.Run(cfg, tr, sched.FIFO{})
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		out.Rows = append(out.Rows, HeartbeatAblationRow{
			IntervalSeconds: interval,
			Events:          res.Events,
			WallSeconds:     wall,
			ErrPct:          metrics.SignedErrorPct(res.Makespan, engRes.Makespan),
		})
	}
	return out, nil
}

// Render writes the heartbeat sensitivity table.
func (r *HeartbeatAblationResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "# Mumak heartbeat-interval sensitivity (SimMR processed %d events on the same trace)\n", r.SimMREvents)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			f2(row.IntervalSeconds), fmt.Sprint(row.Events),
			fmt.Sprintf("%.4f", row.WallSeconds), f2(row.ErrPct),
		})
	}
	return writeRows(w, "heartbeat_s\tevents\twall_s\tmakespan_err_vs_simmr_pct", rows)
}
