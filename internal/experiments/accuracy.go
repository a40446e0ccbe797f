package experiments

import (
	"fmt"
	"io"

	"simmr/internal/cluster"
	"simmr/internal/engine"
	"simmr/internal/metrics"
	"simmr/internal/mumak"
	"simmr/internal/sched"
	"simmr/internal/workload"
)

// AccuracyEntry is one Figure 5 bar group: a job's actual (testbed)
// completion versus its simulated completions, averaged over the runs.
type AccuracyEntry struct {
	App         string
	Actual      float64
	SimMR       float64
	Mumak       float64 // 0 unless the scheduler is FIFO (as in the paper)
	SimMRErrPct float64 // signed mean error
	MumakErrPct float64
}

// Figure5Result holds one panel of Figure 5 (one scheduler).
type Figure5Result struct {
	Scheduler    string
	Runs         int
	Entries      []AccuracyEntry
	SimMRSummary metrics.ErrorSummary
	MumakSummary metrics.ErrorSummary // populated for FIFO only
}

// Figure5FIFO reproduces Figure 5(a): per-application accuracy of SimMR
// and Mumak replaying FIFO testbed executions. The paper reports SimMR
// within 2.7% average (6.6% max) while Mumak shows 37% average error and
// systematically underestimates.
func Figure5FIFO(runs int, seed int64) (*Figure5Result, error) {
	return figure5(sched.FIFO{}, true, runs, seed)
}

// Figure5MinEDF reproduces Figure 5(b): accuracy replaying MinEDF runs
// (paper: 1.1% average, 2.7% max).
func Figure5MinEDF(runs int, seed int64) (*Figure5Result, error) {
	return figure5(sched.MinEDF{}, false, runs, seed)
}

// Figure5MaxEDF reproduces Figure 5(c): accuracy replaying MaxEDF runs
// (paper: 3.7% average, 8.6% max).
func Figure5MaxEDF(runs int, seed int64) (*Figure5Result, error) {
	return figure5(sched.MaxEDF{}, false, runs, seed)
}

// deadlineFactorForValidation relaxes each job's deadline relative to
// its FIFO completion time for the MinEDF/MaxEDF validation runs, so
// MinEDF has room to shrink allocations.
const deadlineFactorForValidation = 1.5

func figure5(policy sched.Policy, withMumak bool, runs int, seed int64) (*Figure5Result, error) {
	if runs < 1 {
		return nil, fmt.Errorf("experiments: figure5 needs >= 1 run")
	}
	out := &Figure5Result{Scheduler: policy.Name(), Runs: runs}
	var simErrs, mumakErrs []float64

	// Salt the seed per scheduler so each panel reflects independent
	// testbed executions (a single-job MaxEDF run is behaviourally FIFO;
	// without the salt its panel would duplicate FIFO's numbers).
	var salt int64
	for _, c := range policy.Name() {
		salt = salt*31 + int64(c)
	}

	for _, app := range workload.Apps() {
		spec := app.Spec(0)
		entry := AccuracyEntry{App: app.Name}
		for r := 0; r < runs; r++ {
			runSeed := seed + salt + int64(r)*7919
			actual, sim, mum, err := accuracyRun(spec, policy, withMumak, runSeed)
			if err != nil {
				return nil, err
			}
			entry.Actual += actual
			entry.SimMR += sim
			entry.SimMRErrPct += metrics.SignedErrorPct(sim, actual)
			simErrs = append(simErrs, metrics.RelativeErrorPct(sim, actual))
			if withMumak {
				entry.Mumak += mum
				entry.MumakErrPct += metrics.SignedErrorPct(mum, actual)
				mumakErrs = append(mumakErrs, metrics.RelativeErrorPct(mum, actual))
			}
		}
		n := float64(runs)
		entry.Actual /= n
		entry.SimMR /= n
		entry.SimMRErrPct /= n
		if withMumak {
			entry.Mumak /= n
			entry.MumakErrPct /= n
		}
		out.Entries = append(out.Entries, entry)
	}
	out.SimMRSummary = metrics.SummarizeErrors(simErrs)
	if withMumak {
		out.MumakSummary = metrics.SummarizeErrors(mumakErrs)
	}
	return out, nil
}

// accuracyRun performs one validation cycle for one application: execute
// on the emulated testbed under the policy, profile the execution, and
// replay the extracted trace in SimMR (and Mumak for FIFO).
func accuracyRun(spec workload.Spec, policy sched.Policy, withMumak bool, seed int64) (actual, sim, mum float64, err error) {
	cfg := TestbedConfig(seed)
	job := cluster.Job{Spec: spec}

	if policy.Name() != "FIFO" {
		// Deadline-driven runs need a job profile (for MinEDF sizing)
		// and a deadline; both come from a prior FIFO profiling run,
		// just as on a real cluster.
		profCfg := TestbedConfig(seed + 51)
		tpl, fifoTime, perr := profileSpec(profCfg, spec)
		if perr != nil {
			return 0, 0, 0, perr
		}
		job.Profile = tpl.Profile()
		job.Deadline = fifoTime * deadlineFactorForValidation
	}

	res, err := runTestbedJob(cfg, job, policy)
	if err != nil {
		return 0, 0, 0, err
	}
	actual = res.Jobs[0].CompletionTime()

	tr := profilerFromResult(res)
	engRes, err := engine.Run(EngineConfig(), tr, policy)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("experiments: SimMR replay: %w", err)
	}
	sim = engRes.Jobs[0].CompletionTime()

	if withMumak {
		mumRes, merr := mumak.Run(mumak.DefaultConfig(), tr, policy)
		if merr != nil {
			return 0, 0, 0, fmt.Errorf("experiments: Mumak replay: %w", merr)
		}
		mum = mumRes.Jobs[0].CompletionTime()
	}
	return actual, sim, mum, nil
}

// Render renders one Figure 5 panel.
func (r *Figure5Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "# Simulator accuracy, %s scheduler, %d runs per application\n", r.Scheduler, r.Runs)
	fmt.Fprintf(w, "# SimMR error: avg %.1f%%, max %.1f%%\n", r.SimMRSummary.AvgPct, r.SimMRSummary.MaxPct)
	if r.MumakSummary.N > 0 {
		fmt.Fprintf(w, "# Mumak error: avg %.1f%%, max %.1f%%\n", r.MumakSummary.AvgPct, r.MumakSummary.MaxPct)
	}
	rows := make([][]string, 0, len(r.Entries))
	for _, e := range r.Entries {
		row := []string{e.App, f1(e.Actual), f1(e.SimMR), f2(e.SimMRErrPct)}
		if r.MumakSummary.N > 0 {
			row = append(row, f1(e.Mumak), f2(e.MumakErrPct))
		}
		rows = append(rows, row)
	}
	header := "app\tactual_s\tsimmr_s\tsimmr_err_pct"
	if r.MumakSummary.N > 0 {
		header += "\tmumak_s\tmumak_err_pct"
	}
	return writeRows(w, header, rows)
}
