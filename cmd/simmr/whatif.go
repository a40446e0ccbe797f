package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"simmr/pkg/simmr"
)

// runTraceWhatif implements `simmr trace whatif`: replay the workload
// once up to a branch point, then fan out K forks — a
// control branch plus one branch per requested policy swap and per
// deadline rescale — and print a comparison table. All branches share
// the simulated prefix, so answering K questions costs roughly one
// replay plus K suffixes instead of K full replays.
func runTraceWhatif(args []string) error {
	fs := flag.NewFlagSet("trace whatif", flag.ContinueOnError)
	var (
		at        = fs.Float64("at", 0.5, "branch point as a fraction of the replay's total events (0..1)")
		policies  = fs.String("policies", "", "comma-separated policies to swap to at the branch point, one branch each")
		ddlScales = fs.String("deadline-scale", "", "comma-separated factors: rescale un-arrived jobs' deadlines, one branch each")
		workers   = fs.Int("workers", 0, "concurrent branches (0 = one per CPU)")
		explain   = fs.Bool("explain", false, "attribute every branch causally and diff it against the control (where did each job's time move, which deadline misses were fixed or introduced)")
		topK      = fs.Int("top", 5, "with -explain: per-branch rows in the diff tables")
	)
	rf := addReplayFlags(fs) // -policy is the baseline the branches depart from
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *at < 0 || *at > 1 {
		return fmt.Errorf("-at %g: branch point must be in [0, 1]", *at)
	}
	tel, tr, err := rf.open()
	if err != nil {
		return err
	}
	mkPolicy := rf.policy
	if _, err := mkPolicy(); err != nil {
		return err
	}

	branches := []simmr.WhatIf{{Name: "control"}}
	if *policies != "" {
		for _, name := range strings.Split(*policies, ",") {
			name = strings.TrimSpace(name)
			p, err := policyByName(name, *rf.shares)
			if err != nil {
				return err
			}
			branches = append(branches, simmr.WhatIf{Name: "policy=" + name, Policy: p})
		}
	}
	if *ddlScales != "" {
		for _, part := range strings.Split(*ddlScales, ",") {
			scale, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || !(scale > 0) {
				return fmt.Errorf("bad deadline scale %q", part)
			}
			branches = append(branches, simmr.WhatIf{
				Name: fmt.Sprintf("deadlines x%g", scale),
				Mutate: func(e *simmr.Engine) error {
					// Only jobs still in the future can be re-negotiated;
					// scale their deadline slack around the arrival time.
					now := e.Now()
					for _, j := range tr.Jobs {
						if j.Arrival <= now || j.Deadline <= 0 {
							continue
						}
						d := j.Arrival + (j.Deadline-j.Arrival)*scale
						if err := e.SetDeadline(j.ID, d); err != nil {
							return err
						}
					}
					return nil
				},
			})
		}
	}

	cfg := rf.config()
	// One plain replay prices the trace in events, so -at can be a
	// fraction instead of an opaque event count.
	stopRef := tel.Span("build")
	refPolicy, _ := mkPolicy()
	ref, err := simmr.Replay(cfg, tr, refPolicy)
	stopRef()
	if err != nil {
		return err
	}
	branchEvents := uint64(*at * float64(ref.Events))

	// With -explain, one attribution sink observes the shared prefix and
	// every branch continues it from a fork: each branch then explains
	// its entire run — prefix included — and the control branch's report
	// is the diff baseline.
	var attrPrefix *simmr.AttrSink
	var branchAttr []*simmr.AttrSink
	if *explain {
		attrPrefix = simmr.NewAttrSink(simmr.AttrOptions{MapSlots: cfg.MapSlots, ReduceSlots: cfg.ReduceSlots, Trace: tr})
		cfg.Sink = attrPrefix
		branchAttr = make([]*simmr.AttrSink, len(branches))
		for i := range branches {
			i := i
			branches[i].SinkFactory = func() simmr.Sink {
				s := attrPrefix.Fork()
				branchAttr[i] = s
				return s
			}
		}
	}

	// With the debug server up the fan-out shows on its ops plane: /runs
	// has phases prefix -> branches, each branch carrying a forked
	// flight recorder.
	o := opsOptions(tel, nil)
	bcfg := simmr.BranchSetConfig{
		Config:        cfg,
		Trace:         tr,
		PolicyFactory: func() simmr.Policy { p, _ := mkPolicy(); return p },
		BranchEvents:  branchEvents,
		Workers:       *workers,
		Telemetry:     tel,
		Runs:          o.Runs,
		Flight:        o.Flight,
	}
	stopRun := tel.Span("run")
	results, err := simmr.BranchSet(context.Background(), bcfg, branches)
	stopRun()
	if err != nil {
		return err
	}
	defer tel.Span("report")()

	fmt.Printf("%d jobs, branch point %d/%d events (%.0f%%), %d branches, baseline policy %s\n",
		len(tr.Jobs), branchEvents, ref.Events, *at*100, len(branches), refPolicy.Name())
	fmt.Println("branch\tmakespan_s\tmean_completion_s\tmissed_deadlines\td_makespan_s")
	control := results[0]
	for i, res := range results {
		var sum float64
		missed := 0
		for _, j := range res.Jobs {
			sum += j.CompletionTime()
			if j.ExceededDeadline() {
				missed++
			}
		}
		fmt.Printf("%s\t%.1f\t%.1f\t%d\t%+.1f\n",
			branches[i].Name, res.Makespan, sum/float64(len(res.Jobs)),
			missed, res.Makespan-control.Makespan)
	}

	if *explain {
		controlRep := branchAttr[0].Report()
		tel.ObserveExplanations(controlRep.Jobs)
		for i := 1; i < len(branches); i++ {
			rep := branchAttr[i].Report()
			tel.ObserveExplanations(rep.Jobs)
			diff := simmr.DiffAttrReports(controlRep, rep)
			fmt.Printf("\n# branch %s\n", branches[i].Name)
			if err := diff.WriteTSV(os.Stdout, *topK); err != nil {
				return err
			}
		}
	}
	return nil
}
