package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"simmr/internal/plan"
	"simmr/internal/runs"
	"simmr/pkg/simmr"
)

// runTraceCmd dispatches the `simmr trace` subcommands: `run` (replay
// with observability sinks, export a Chrome trace), `explain` (causal
// attribution: per-job wait breakdowns with blame, deadline-miss root
// causes, and the makespan critical path), `whatif` (branch one shared
// replay prefix into K mutated what-if scenarios), `pack`/`unpack`
// (convert between JSON and the columnar binary `.strc` store), and
// `info` (section-level layout of a packed trace).
func runTraceCmd(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runTraceRun(args[1:])
		case "explain":
			return runTraceExplain(args[1:])
		case "whatif":
			return runTraceWhatif(args[1:])
		case "pack":
			return runTracePack(args[1:])
		case "unpack":
			return runTraceUnpack(args[1:])
		case "info":
			return runTraceInfo(args[1:])
		}
	}
	return fmt.Errorf("usage: simmr trace run|explain|whatif|pack|unpack|info -trace FILE [flags]")
}

// runTraceRun implements `simmr trace run`: replay a workload with the
// observability sinks attached and export the result as a Chrome
// trace-event file (open in chrome://tracing or Perfetto) and,
// optionally, a slot-occupancy TSV.
func runTraceRun(args []string) error {
	fs := flag.NewFlagSet("trace run", flag.ContinueOnError)
	var (
		out     = fs.String("out", "trace.json", "Chrome trace-event output path")
		slotTSV = fs.String("slot-timeline", "", "also write a slot-occupancy TSV (renders via internal/report)")
	)
	rf := addReplayFlags(fs)
	cf := addCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tel, tr, err := rf.open()
	if err != nil {
		return err
	}
	policy, err := rf.policy()
	if err != nil {
		return err
	}

	ct := simmr.NewChromeTraceSink()
	var tl *simmr.TimelineSink
	sink := simmr.Sink(ct)
	if *slotTSV != "" {
		tl = simmr.NewTimelineSink()
		sink = simmr.TeeSinks(ct, tl)
	}
	// The attribution sink feeds the end-of-run summary (slot-wait
	// share); completion percentiles come straight from the result.
	cfg := rf.config()
	attrSink := simmr.NewAttrSink(simmr.AttrOptions{MapSlots: cfg.MapSlots, ReduceSlots: cfg.ReduceSlots, Trace: tr})
	cfg.Sink = simmr.TeeSinks(sink, attrSink)
	cache := cf.open(tel)
	stopRun := tel.Span("run")
	res, hit, err := plan.One(opsOptions(tel, cache), runs.KindReplay, cfg, tr, policy)
	stopRun()
	if err != nil {
		return err
	}
	defer tel.Span("report")()
	if hit {
		fmt.Printf("%d jobs, makespan %.1f s, %d events, policy %s\n",
			len(res.Jobs), res.Makespan, res.Events, policy.Name())
		printCacheLine(cache)
		printSkippedExports(*out)
		return nil
	}

	if err := writeFile(*out, ct.WriteJSON); err != nil {
		return err
	}
	if tl != nil {
		if err := writeFile(*slotTSV, tl.WriteTSV); err != nil {
			return err
		}
	}
	fmt.Printf("%d jobs, makespan %.1f s, %d events, policy %s\n",
		len(res.Jobs), res.Makespan, res.Events, policy.Name())
	printCacheLine(cache)
	printRunSummary(res, attrSink.Report())
	fmt.Printf("wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *out)
	if tl != nil {
		fmt.Printf("wrote %s\n", *slotTSV)
	}
	return nil
}

// writeFile creates path and has write fill it; a failed Close is a
// failed write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRunSummary renders the compact end-of-run digest: job-completion
// percentiles plus the share of total job time spent waiting rather
// than running (the attribution sink's wait phases over completions —
// high share means the cluster, not the work, set the pace).
func printRunSummary(res *simmr.ReplayResult, rep *simmr.AttrReport) {
	comp := make([]float64, 0, len(res.Jobs))
	missed := 0
	for _, j := range res.Jobs {
		comp = append(comp, j.CompletionTime())
		if j.ExceededDeadline() {
			missed++
		}
	}
	sort.Float64s(comp)
	// Nearest-rank percentiles; comp is non-empty (the engine rejects
	// empty workloads).
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(comp)))) - 1
		if i < 0 {
			i = 0
		}
		return comp[i]
	}
	var wait, total float64
	for i := range rep.Jobs {
		wait += rep.Jobs[i].WaitTotal()
		total += rep.Jobs[i].Completion()
	}
	share := 0.0
	if total > 0 {
		share = wait / total
	}
	fmt.Printf("completion p50 %.1f s, p95 %.1f s, p99 %.1f s; slot-wait share %.1f%%; %d deadline miss(es)\n",
		q(0.50), q(0.95), q(0.99), share*100, missed)
}
