// Command experiments regenerates every figure and table of the paper's
// evaluation and writes one tab-separated result file each under
// -outdir (default results/). See DESIGN.md §4 for the experiment index
// and EXPERIMENTS.md for paper-vs-measured comparisons.
//
// Usage:
//
//	experiments                      # everything, paper-scale where feasible
//	experiments -only fig5,fig6      # a subset
//	experiments -reps 40             # lighter Figure 7/8 sweeps
//	experiments -debug-addr :6060    # live /metrics + pprof
//	                                 # while the long sweeps run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"simmr/internal/debugserver"
	"simmr/internal/experiments"
	"simmr/internal/parallel"
	"simmr/internal/rcache"
	"simmr/internal/report"
	"simmr/internal/telemetry"
)

type renderer interface {
	Render(io.Writer) error
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		outDir    = flag.String("outdir", "results", "output directory")
		only      = flag.String("only", "", "comma-separated subset: fig1,fig2,fig3,table1,fig5,fig6,fig7,fig8,fit,ablation")
		seed      = flag.Int64("seed", 1, "random seed")
		reps      = flag.Int("reps", 400, "repetitions per Figure 7/8 point (paper: 400)")
		fig5Runs  = flag.Int("fig5-runs", 3, "executions per application for Figure 5 (paper: 3)")
		table1Exe = flag.Int("table1-executions", 5, "executions per application for Table I (paper: 5)")
		fig6Jobs  = flag.Int("fig6-jobs", 1148, "production-trace size for Figure 6 (paper: 1148)")
		debugAddr = flag.String("debug-addr", "", "serve Prometheus /metrics and pprof on this address (e.g. localhost:6060)")
		cacheDir  = flag.String("cache-dir", "", "replay result cache directory for the Figure 7/8 sweeps; reruns with identical parameters replay nothing")
		cacheMem  = flag.Int("cache-mem", 0, "replay result cache memory budget in MiB: with -cache-dir it holds the results read back from disk, alone it holds every result (0 with -cache-dir: 64 MiB default; 0 alone: caching off)")
	)
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	var tel *telemetry.SimMetrics
	if *debugAddr != "" {
		var err error
		tel, err = debugserver.Start("experiments", *debugAddr)
		if err != nil {
			return err
		}
	}
	var cache *rcache.Cache
	if *cacheDir != "" || *cacheMem > 0 {
		opts := rcache.Options{Dir: *cacheDir, MemBytes: int64(*cacheMem) << 20}
		if tel != nil {
			opts.Obs = tel
		}
		cache = rcache.New(opts)
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(name)] = true
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	type experiment struct {
		name, file string
		run        func() (renderer, error)
	}
	list := []experiment{
		{"fig1", "figure1_waves_128x128.tsv", func() (renderer, error) { return experiments.Figure1(*seed) }},
		{"fig2", "figure2_waves_64x64.tsv", func() (renderer, error) { return experiments.Figure2(*seed) }},
		{"fig3", "figure3_duration_cdfs.tsv", func() (renderer, error) { return experiments.Figure3(*seed) }},
		{"table1", "table1_kl_divergence.tsv", func() (renderer, error) { return experiments.TableI(*table1Exe, *seed) }},
		{"fig5", "figure5a_accuracy_fifo.tsv", func() (renderer, error) { return experiments.Figure5FIFO(*fig5Runs, *seed) }},
		{"fig5", "figure5b_accuracy_minedf.tsv", func() (renderer, error) { return experiments.Figure5MinEDF(*fig5Runs, *seed) }},
		{"fig5", "figure5c_accuracy_maxedf.tsv", func() (renderer, error) { return experiments.Figure5MaxEDF(*fig5Runs, *seed) }},
		{"fig6", "figure6_simulator_speed.tsv", func() (renderer, error) { return experiments.Figure6(*fig6Jobs, nil, *seed) }},
		{"fig7", "figure7_deadlines_testbed.tsv", func() (renderer, error) {
			cfg := experiments.DefaultFigure7Config()
			cfg.Repetitions = *reps
			cfg.Seed = *seed
			cfg.Progress = stderrProgress("fig7")
			cfg.Telemetry = tel
			cfg.Cache = cache
			return experiments.Figure7(cfg)
		}},
		{"fig8", "figure8_deadlines_facebook.tsv", func() (renderer, error) {
			cfg := experiments.DefaultFigure8Config()
			cfg.Repetitions = *reps
			cfg.Seed = *seed
			cfg.Progress = stderrProgress("fig8")
			cfg.Telemetry = tel
			cfg.Cache = cache
			return experiments.Figure8(cfg)
		}},
		{"fit", "facebook_fit_map.tsv", func() (renderer, error) { return experiments.FacebookFit("map", 20000, *seed) }},
		{"fit", "facebook_fit_reduce.tsv", func() (renderer, error) { return experiments.FacebookFit("reduce", 20000, *seed) }},
		{"ablation", "ablation_shuffle_model.tsv", func() (renderer, error) { return experiments.AblationShuffleModel(*seed) }},
		{"ablation", "ablation_minedf_estimator.tsv", func() (renderer, error) { return experiments.AblationMinEDFEstimator(50, *seed) }},
		{"ablation", "ablation_mumak_heartbeat.tsv", func() (renderer, error) { return experiments.AblationMumakHeartbeat(100, *seed) }},
		{"ablation", "ablation_preemption.tsv", func() (renderer, error) { return experiments.AblationPreemption(40, *seed) }},
		{"workload", "workload_validation.tsv", func() (renderer, error) { return experiments.WorkloadValidation(30, *seed) }},
		{"ablation", "delay_scheduling_study.tsv", func() (renderer, error) { return experiments.DelayStudy(24, *seed) }},
	}

	for _, exp := range list {
		if !want(exp.name) {
			continue
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %-7s -> %s ...", exp.name, exp.file)
		res, err := exp.run()
		if err != nil {
			// The progress ticker may own the line (and on an aborted
			// sweep it has just delivered its final, accurate count);
			// rewrite it with the verdict instead of appending to a
			// partial render. The padding clears any longer remnant.
			fmt.Fprintf(os.Stderr, "\rrunning %-7s -> %s FAILED%-24s\n", exp.name, exp.file, "")
			return fmt.Errorf("%s: %w", exp.name, err)
		}
		path := filepath.Join(*outDir, exp.file)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := res.Render(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: render: %w", exp.name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, " done in %.1fs\n", time.Since(start).Seconds())
	}
	if cache != nil {
		// Honest totals: each sweep repetition generates its own trace,
		// so a first run is all misses — the hits arrive when the same
		// figure reruns with identical parameters.
		st := cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses\n", st.Hits, st.Misses)
	}
	// Consolidate everything generated so far into one reviewable file.
	reportPath := filepath.Join(*outDir, "REPORT.md")
	if err := report.WriteFile(*outDir, reportPath); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", reportPath)
	return nil
}

// stderrProgress renders a sweep's cell completion on stderr as a
// rewriting ticker. Per parallel.ProgressFunc's contract the callback
// may arrive concurrently with out-of-order done values, so it renders
// the max seen under a mutex; the rate bound keeps it off the worker
// pool's critical path.
func stderrProgress(name string) parallel.ProgressFunc {
	var mu sync.Mutex
	maxDone := 0
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done <= maxDone {
			return
		}
		maxDone = done
		// Rewrites the "running fig7 -> file ..." line; the caller's
		// " done in Xs" suffix lands after the final (total/total) tick.
		fmt.Fprintf(os.Stderr, "\rrunning %-7s %d/%d cells ...", name, done, total)
	}
}
