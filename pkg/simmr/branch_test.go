package simmr

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"simmr/internal/sched/schedtest"
	"simmr/internal/telemetry/telemetrytest"
)

// branchFixture builds a production-shaped trace with one guaranteed
// straggler appended at the base trace's makespan — so the deadline
// branch always has an un-arrived job at mid-trace branch points —
// plus the extended trace's total event count and makespan under the
// given policy.
func branchFixture(t *testing.T, jobs int, p Policy) (*Trace, uint64, float64) {
	t.Helper()
	tr, err := ProductionTrace(jobs-1, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Replay(DefaultReplayConfig(), tr, p)
	if err != nil {
		t.Fatal(err)
	}
	tr.Jobs = append(tr.Jobs, &Job{
		ID: jobs - 1, Name: "straggler", Arrival: base.Makespan,
		Template: whatIfTemplate(),
	})
	res, err := Replay(DefaultReplayConfig(), tr, p)
	if err != nil {
		t.Fatal(err)
	}
	return tr, res.Events, res.Makespan
}

// latestJob returns the trace's last-arriving job.
func latestJob(tr *Trace) *Job {
	last := tr.Jobs[0]
	for _, j := range tr.Jobs {
		if j.Arrival > last.Arrival {
			last = j
		}
	}
	return last
}

// whatIfTemplate returns a valid template for injected jobs.
func whatIfTemplate() *Template {
	return &Template{
		AppName:         "whatif",
		NumMaps:         4,
		NumReduces:      1,
		MapDurations:    []float64{5, 6, 7, 8},
		FirstShuffle:    []float64{2},
		TypicalShuffle:  []float64{3},
		ReduceDurations: []float64{4},
	}
}

// testBranches returns a representative what-if mix: a control branch,
// an injection (anchored past the makespan so it is future-dated at any
// branch point), a deadline move on the latest-arriving job, a policy
// swap, and a Mutate hook.
func testBranches(t *testing.T, tr *Trace, horizon float64) []WhatIf {
	t.Helper()
	last := latestJob(tr)
	return []WhatIf{
		{Name: "control"},
		{Name: "inject", InjectJobs: []*Job{{
			ID: 1 << 20, Name: "surprise", Arrival: horizon + 10,
			Deadline: horizon + 500, Template: whatIfTemplate(),
		}}},
		{Name: "deadline", SetDeadlines: map[int]float64{last.ID: last.Arrival + 250}},
		{Name: "swap", Policy: NewMaxEDF()},
		{Name: "mutate", Mutate: func(e *Engine) error {
			return e.InjectJob(&Job{
				ID: 1<<20 + 1, Arrival: e.Now() + 2, Template: whatIfTemplate(),
			})
		}},
	}
}

// applyWhatIf replicates a WhatIf's edits on a paused engine — the
// independent-replay oracle for BranchSet.
func applyWhatIf(t *testing.T, e *Engine, b *WhatIf) {
	t.Helper()
	if b.Policy != nil {
		if err := e.SetPolicy(b.Policy); err != nil {
			t.Fatal(err)
		}
	}
	for id, d := range b.SetDeadlines {
		if err := e.SetDeadline(id, d); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range b.InjectJobs {
		if err := e.InjectJob(j); err != nil {
			t.Fatal(err)
		}
	}
	if b.Mutate != nil {
		if err := b.Mutate(e); err != nil {
			t.Fatal(err)
		}
	}
}

// lateBranches filters out the deadline branch, which is only legal
// while the latest-arriving job is still pending — deep or past-the-end
// branch points need this subset.
func lateBranches(bs []WhatIf) []WhatIf {
	out := bs[:0:0]
	for _, b := range bs {
		if b.Name != "deadline" {
			out = append(out, b)
		}
	}
	return out
}

// TestBranchSetMatchesIndependentReplays is the package-level
// differential: every BranchSet branch must equal a from-scratch engine
// paused at the same event with the same edits, on the engine's
// scheduling index (via PolicyFactory) and on the reference scan.
func TestBranchSetMatchesIndependentReplays(t *testing.T) {
	tr, total, horizon := branchFixture(t, 40, NewMinEDF())
	variants := []struct {
		name string
		cfg  BranchSetConfig
		mk   func() Policy
	}{
		{"scan", BranchSetConfig{Policy: schedtest.ScanOnly(NewMinEDF())},
			func() Policy { return schedtest.ScanOnly(NewMinEDF()) }},
		{"indexed", BranchSetConfig{PolicyFactory: NewMinEDF}, NewMinEDF},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			branches := testBranches(t, tr, horizon)
			cfg := v.cfg
			cfg.Trace = tr
			cfg.BranchEvents = total / 3
			got, err := BranchSet(context.Background(), cfg, branches)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(branches) {
				t.Fatalf("got %d results for %d branches", len(got), len(branches))
			}
			for i := range branches {
				e, err := NewEngine(DefaultReplayConfig(), tr, v.mk())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.RunEvents(cfg.BranchEvents); err != nil {
					t.Fatal(err)
				}
				applyWhatIf(t, e, &branches[i])
				want, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("branch %q diverged from its independent replay", branches[i].Name)
				}
			}
		})
	}
}

// TestBranchSetSerialParallelIdentical pins scheduling-independence:
// the same fan-out on 1 worker and on the default pool must return
// identical results (fork order and pooled-engine recycling must not
// leak into outcomes).
func TestBranchSetSerialParallelIdentical(t *testing.T) {
	tr, total, horizon := branchFixture(t, 30, NewFIFO())
	mk := func(workers int) []*ReplayResult {
		res, err := BranchSet(context.Background(), BranchSetConfig{
			Trace:        tr,
			BranchEvents: total * 9 / 10,
			Workers:      workers,
		}, lateBranches(testBranches(t, tr, horizon)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := mk(1), mk(0)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel BranchSet diverged from serial")
	}
}

// TestBranchSetEdges covers the degenerate shapes: zero branches, a
// branch point at t=0, and one past the end of the trace (the control
// branch then just reports the finished replay; the inject branch
// revives it).
func TestBranchSetEdges(t *testing.T) {
	tr, total, horizon := branchFixture(t, 20, NewFIFO())

	if res, err := BranchSet(context.Background(), BranchSetConfig{Trace: tr}, nil); err != nil || res != nil {
		t.Fatalf("empty branch list: res=%v err=%v", res, err)
	}
	if _, err := BranchSet(context.Background(), BranchSetConfig{}, testBranches(t, tr, horizon)); err == nil {
		t.Fatal("nil trace did not error")
	}

	for _, at := range []uint64{0, total + 100} {
		branches := testBranches(t, tr, horizon)
		if at > total {
			branches = lateBranches(branches)
		}
		res, err := BranchSet(context.Background(), BranchSetConfig{
			Trace: tr, BranchEvents: at,
		}, branches)
		if err != nil {
			t.Fatalf("branch at %d: %v", at, err)
		}
		// Control branch replays the unmodified trace.
		want, err := Replay(DefaultReplayConfig(), tr, NewFIFO())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[0].Jobs, want.Jobs) {
			t.Fatalf("control branch at %d diverged from plain replay", at)
		}
		// Inject branch carries the extra job.
		found := false
		for _, j := range res[1].Jobs {
			if j.ID == 1<<20 {
				found = true
			}
		}
		if !found {
			t.Fatalf("inject branch at %d lost the injected job", at)
		}
	}
}

// TestBranchSetErrorNamesBranch surfaces the failing branch by name and
// lowest index.
func TestBranchSetErrorNamesBranch(t *testing.T) {
	tr, total, _ := branchFixture(t, 20, NewFIFO())
	_, err := BranchSet(context.Background(), BranchSetConfig{
		Trace: tr, BranchEvents: total / 2,
	}, []WhatIf{
		{Name: "ok"},
		{Name: "bad-inject", InjectJobs: []*Job{{ID: 0, Arrival: 1e9, Template: whatIfTemplate()}}},
	})
	if err == nil || !strings.Contains(err.Error(), "bad-inject") {
		t.Fatalf("err = %v, want branch name in error", err)
	}
}

// TestBranchSetTelemetry wires a Telemetry through a fan-out and checks
// the fork counters, finished-runs accounting, byte conservation, that
// the prefix's events were emitted once, not once per branch, and that
// every branch's departures are observed as completions, the jobs that
// arrived in the prefix included.
func TestBranchSetTelemetry(t *testing.T) {
	tr, total, horizon := branchFixture(t, 30, NewFIFO())
	tel := NewTelemetry()
	branches := testBranches(t, tr, horizon)
	if _, err := BranchSet(context.Background(), BranchSetConfig{
		Trace:        tr,
		BranchEvents: total / 2,
		Telemetry:    tel,
	}, branches); err != nil {
		t.Fatal(err)
	}
	v := telemetrytest.Scrape(t, tel.Registry())
	if got := v["simmr_replays_total"]; got != float64(len(branches)) {
		t.Errorf("simmr_replays_total = %v, want %d", got, len(branches))
	}
	if got := v["simmr_engine_forks_total"]; got != 5 {
		t.Errorf("simmr_engine_forks_total = %v, want 5", got)
	}
	if got := v["simmr_engine_fork_bytes_copied"]; got <= 0 {
		t.Errorf("simmr_engine_fork_bytes_copied = %v, want the forks' copy cost", got)
	}
	if got, want := v["simmr_job_completion_seconds_count"], v["simmr_jobs_completed_total"]; got != want || want == 0 {
		t.Errorf("simmr_job_completion_seconds_count = %v, want simmr_jobs_completed_total = %v", got, want)
	}
	// The fan-out simulates its prefix once. Its sinks were delivered what
	// one engine emits up to the branch point plus what each branch's
	// independent replay emits after it; a fork that ran the prefix again
	// would deliver a whole replay per branch.
	var want uint64
	for i := range branches {
		ms := NewMetricsSink()
		cfg := DefaultReplayConfig()
		cfg.Sink = ms
		e, err := NewEngine(cfg, tr, NewFIFO())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunEvents(total / 2); err != nil {
			t.Fatal(err)
		}
		prefix := ms.Snapshot().Observed
		applyWhatIf(t, e, &branches[i])
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = prefix
		}
		want += ms.Snapshot().Observed - prefix
	}
	if got := v.Sum("simmr_engine_events_by_kind_total"); got != float64(want) {
		t.Errorf("sinks were delivered %v events, want the prefix once and %d suffixes: %d", got, len(branches), want)
	}
}
