package main

import (
	"flag"
	"fmt"
	"os"

	"simmr/internal/plan"
	"simmr/internal/runs"
	"simmr/pkg/simmr"
)

// runTraceExplain implements `simmr trace explain`: replay a workload
// with the causal attribution sink attached and report why every job
// finished when it did — a per-job wait breakdown whose phases sum
// exactly to completion time, blame for every contended wait (which
// resident job's slot hand-off ended it, or that the policy left the
// slot free), deadline-miss root causes, and the cluster-wide critical
// path of slot hand-offs that determined the makespan. Optionally
// exports a Chrome trace with the critical path as an overlay track.
func runTraceExplain(args []string) error {
	fs := flag.NewFlagSet("trace explain", flag.ContinueOnError)
	var (
		topK   = fs.Int("top", 10, "rows in the top-K miss and wait tables")
		asJSON = fs.Bool("json", false, "emit the report as JSON instead of TSV")
		out    = fs.String("out", "", "also write a Chrome trace with the critical path as an overlay track")
	)
	rf := addReplayFlags(fs)
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

	cfg := rf.config()
	attrSink := simmr.NewAttrSink(simmr.AttrOptions{MapSlots: cfg.MapSlots, ReduceSlots: cfg.ReduceSlots, Trace: tr})
	sink := simmr.Sink(attrSink)
	var ct *simmr.ChromeTraceSink
	if *out != "" {
		ct = simmr.NewChromeTraceSink()
		sink = simmr.TeeSinks(attrSink, ct)
	}
	cfg.Sink = sink
	stopRun := tel.Span("run")
	_, _, err = plan.Totals(opsOptions(tel, nil), runs.KindAttr, cfg, tr, policy)
	stopRun()
	if err != nil {
		return err
	}
	defer tel.Span("report")()

	rep := attrSink.Report()
	tel.ObserveExplanations(rep.Jobs)

	if ct != nil {
		ct.SetOverlay("critical path", simmr.AttrOverlay(rep.CriticalPath))
		if err := writeFile(*out, ct.WriteJSON); err != nil {
			return err
		}
	}

	if *asJSON {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		if err := rep.WriteTSV(os.Stdout, *topK); err != nil {
			return err
		}
	}
	if ct != nil {
		fmt.Fprintf(os.Stderr, "wrote %s with critical-path overlay (open in chrome://tracing or https://ui.perfetto.dev)\n", *out)
	}
	return nil
}
