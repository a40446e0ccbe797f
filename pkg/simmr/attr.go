// Causal attribution facade (DESIGN.md §13): re-exports internal/attr,
// the sink that consumes the engine's event stream and explains why
// every job finished when it did — a conservation-exact per-job wait
// breakdown (phases sum to completion time to the last bit), blame
// assignment for every wait (the resident job whose slot hand-off ended
// it, or the policy when a granted slot sat free), and the cluster-wide
// critical path of slot hand-offs that determined the makespan.
//
// A typical session:
//
//	sink := simmr.NewAttrSink(simmr.AttrOptions{
//		MapSlots: cfg.MapSlots, ReduceSlots: cfg.ReduceSlots, Trace: tr,
//	})
//	cfg.Sink = sink
//	res, err := simmr.Replay(cfg, tr, policy)
//	rep := sink.Report()
//	rep.WriteTSV(os.Stdout, 10)
//
// Across a BranchSet, feed the prefix with one sink and give each
// branch a continuation via WhatIf.SinkFactory (sink.Fork); diff the
// resulting reports with DiffAttrReports to see which jobs a what-if
// edit fixed or broke, and where their time moved.

package simmr

import "simmr/internal/attr"

// Attribution types.
type (
	// AttrSink consumes a replay's event stream and reconstructs per-job
	// explanations plus the makespan critical path. One sink per engine;
	// read its Report after the run.
	AttrSink = attr.Sink
	// AttrOptions parameterizes an AttrSink (slot counts for exact
	// free-slot blame, trace for names; deadlines come from the events).
	AttrOptions = attr.Options
	// AttrReport is a finished run's full attribution: per-job
	// explanations, deadline-miss root causes, and the critical path.
	AttrReport = attr.Report
	// AttrDiff contrasts two reports over the same trace — the what-if
	// question "where did the time go" answered branch vs control.
	AttrDiff = attr.AttrDiff
	// Explanation decomposes one job's completion time into phases that
	// sum exactly to Finish − Arrival.
	Explanation = attr.Explanation
	// AttrPhase enumerates the attribution phases (admission wait, map
	// run, map slot wait, preempt re-queue, shuffle barrier, reduce slot
	// wait, reduce run).
	AttrPhase = attr.Phase
	// WaitInterval is one blamed wait: who held the contended slot, or
	// that the policy left it free.
	WaitInterval = attr.WaitInterval
	// CriticalPathStep is one step of the makespan critical path.
	CriticalPathStep = attr.CPStep
)

// NewAttrSink returns an attribution sink; set it (or a Tee including
// it) as ReplayConfig.Sink. Zero Options degrade gracefully: without
// slot counts free-slot blame falls back to hand-off pairing, without a
// trace jobs have no names.
func NewAttrSink(opts AttrOptions) *AttrSink { return attr.NewSink(opts) }

// DiffAttrReports contrasts a what-if branch's attribution against its
// control: per-job completion and phase deltas (sorted by impact),
// per-phase cluster totals, and the deadline misses the branch fixed or
// introduced.
func DiffAttrReports(control, branch *AttrReport) *AttrDiff {
	return attr.Diff(control, branch)
}

// AttrOverlay converts a critical path into Chrome-trace overlay spans
// for ChromeTraceSink.SetOverlay — the makespan-determining chain
// rendered as its own track above the slot timeline.
func AttrOverlay(cp []CriticalPathStep) []OverlaySpan { return attr.OverlaySpans(cp) }
