package simmr

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"simmr/internal/sched"
)

func checkAttrConservation(t *testing.T, exps []Explanation, label string) {
	t.Helper()
	if len(exps) == 0 {
		t.Fatalf("%s: no explanations", label)
	}
	for i := range exps {
		e := &exps[i]
		if got, want := e.PhaseSum(), e.Completion(); got != want {
			t.Fatalf("%s job %d: phase sum %v != completion %v", label, e.JobID, got, want)
		}
	}
}

// One attribution sink per spec of a concurrent ReplayBatchCfg (obs.Sink
// is single-goroutine): the conservation contract holds for every run.
// Run under -race by `make verify`, this is the attribution layer's
// concurrency test.
func TestAttrSinksAcrossBatch(t *testing.T) {
	tr, err := MultiTenantTrace(60, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	policies := []Policy{
		NewFIFO(), NewMaxEDF(), NewMinEDF(), NewFair(),
		NewCapacity([]float64{0.6, 0.4}),
		sched.MinEDF{Estimate: sched.EstimatorLow}, sched.MinEDF{Estimate: sched.EstimatorUp},
	}
	specs := make([]ReplaySpec, len(policies))
	sinks := make([]*AttrSink, len(policies))
	for i, p := range policies {
		sinks[i] = NewAttrSink(AttrOptions{MapSlots: 8, ReduceSlots: 8, Trace: tr})
		specs[i] = ReplaySpec{
			Name: fmt.Sprintf("p%d", i),
			Config: ReplayConfig{
				MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05,
				Sink: sinks[i],
			},
			Trace:  tr,
			Policy: p,
		}
	}
	if _, err := ReplayBatchCfg(context.Background(), BatchConfig{}, specs); err != nil {
		t.Fatal(err)
	}
	for i, s := range sinks {
		exps := s.Report().Jobs
		if len(exps) != len(tr.Jobs) {
			t.Fatalf("run %d: %d explanations for %d jobs", i, len(exps), len(tr.Jobs))
		}
		checkAttrConservation(t, exps, fmt.Sprintf("run %d", i))
	}
}

// WhatIf.SinkFactory forks a prefix attribution sink per branch — the
// cmd/simmr `trace whatif -explain` wiring, exercised through the
// public API: two identical branches must produce a zero diff, and a
// policy-swap branch a well-formed one; every branch's explanations
// conserve over its full run, prefix included.
func TestBranchSetAttrSinkFactory(t *testing.T) {
	tr, err := MultiTenantTrace(40, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ReplayConfig{MapSlots: 6, ReduceSlots: 6, MinMapPercentCompleted: 0.05}

	ref, err := Replay(cfg, tr, NewFIFO())
	if err != nil {
		t.Fatal(err)
	}

	prefix := NewAttrSink(AttrOptions{MapSlots: 6, ReduceSlots: 6, Trace: tr})
	cfg.Sink = prefix
	branches := []WhatIf{
		{Name: "control"},
		{Name: "control-twin"},
		{Name: "fair", Policy: NewFair()},
	}
	branchAttr := make([]*AttrSink, len(branches))
	for i := range branches {
		i := i
		branches[i].SinkFactory = func() Sink {
			s := prefix.Fork()
			branchAttr[i] = s
			return s
		}
	}

	results, err := BranchSet(context.Background(), BranchSetConfig{
		Config:       cfg,
		Trace:        tr,
		BranchEvents: ref.Events / 2,
	}, branches)
	if err != nil {
		t.Fatal(err)
	}

	reports := make([]*AttrReport, len(branches))
	for i := range branches {
		if branchAttr[i] == nil {
			t.Fatalf("branch %d: SinkFactory never called", i)
		}
		if branchAttr[i].Report().Jobs == nil {
			t.Fatalf("branch %d: sink never saw RunEnd", i)
		}
		reports[i] = branchAttr[i].Report()
		if len(reports[i].Jobs) != len(results[i].Jobs) {
			t.Fatalf("branch %d: %d explanations for %d jobs", i, len(reports[i].Jobs), len(results[i].Jobs))
		}
		checkAttrConservation(t, reports[i].Jobs, branches[i].Name)
		if reports[i].Makespan != results[i].Makespan {
			t.Fatalf("branch %d: report makespan %v != result %v", i, reports[i].Makespan, results[i].Makespan)
		}
	}

	// The prefix sink itself must be untouched by the branch forks.
	if prefix.Report().Jobs != nil {
		t.Fatal("prefix sink saw RunEnd through a branch")
	}

	twin := DiffAttrReports(reports[0], reports[1])
	if twin.MakespanDelta != 0 || twin.FixedJobs != 0 || twin.BrokenJobs != 0 {
		t.Fatalf("identical branches diff: %s", twin.Headline())
	}
	for i := range twin.Jobs {
		if twin.Jobs[i].CompletionDelta != 0 {
			t.Fatalf("identical branches: job %d completion delta %v",
				twin.Jobs[i].JobID, twin.Jobs[i].CompletionDelta)
		}
	}

	swap := DiffAttrReports(reports[0], reports[2])
	if len(swap.Jobs) != len(tr.Jobs) {
		t.Fatalf("policy-swap diff covers %d jobs, want %d", len(swap.Jobs), len(tr.Jobs))
	}
	if swap.MakespanDelta != reports[2].Makespan-reports[0].Makespan {
		t.Fatalf("makespan delta %v inconsistent", swap.MakespanDelta)
	}
}
