package simmr

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/obs"
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

// whatIfTemplate returns a valid template for hand-built jobs.
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
// a deadline move on the latest-arriving job, a policy swap, and a swap
// to Fair with every deadline still to come halved, as
// `simmr trace whatif -deadline-scale` does it.
func testBranches(t *testing.T, tr *Trace, horizon float64) []WhatIf {
	t.Helper()
	last := latestJob(tr)
	return []WhatIf{
		{Name: "control"},
		{Name: "deadline", Mutate: func(e *Engine) error {
			return e.SetDeadline(last.ID, last.Arrival+250)
		}},
		{Name: "swap", Policy: NewMaxEDF()},
		{Name: "swap+scale", Policy: NewFair(), Mutate: func(e *Engine) error {
			for _, j := range tr.Jobs {
				if j.Arrival > e.Now() && j.Deadline > 0 {
					if err := e.SetDeadline(j.ID, j.Arrival+(j.Deadline-j.Arrival)/2); err != nil {
						return err
					}
				}
			}
			return nil
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
		{"scan", BranchSetConfig{PolicyFactory: func() Policy { return schedtest.ScanOnly(NewMinEDF()) }},
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
				e, err := engine.New(DefaultReplayConfig(), tr, v.mk())
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
// branch point at t=0 (a policy swap there replays the trace under the
// new policy from the start), and one past the end of the trace (the
// control branch then just reports the finished replay).
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
		if at == 0 {
			want, err := Replay(DefaultReplayConfig(), tr, NewMaxEDF())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res[2].Jobs, want.Jobs) {
				t.Fatal("policy swap at t=0 diverged from a plain replay under the new policy")
			}
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
		{Name: "bad-deadline", Mutate: func(e *Engine) error { return e.SetDeadline(tr.Jobs[0].ID, 1e9) }},
	})
	if err == nil || !strings.Contains(err.Error(), "bad-deadline") {
		t.Fatalf("err = %v, want branch name in error", err)
	}
}

// TestBranchSetRefusesStatefulPrefixPolicy: every branch continues the
// prefix's policy instance, so a policy with state of its own would be
// shared by concurrent branches (a data race) and, run serially, carry
// one branch's spending into the next (zero-edit branches that end at
// different makespans). BranchSet refuses such a policy, by name, before
// it replays anything.
func TestBranchSetRefusesStatefulPrefixPolicy(t *testing.T) {
	tr, err := MultiTenantTrace(400, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	budgets, bids := map[int]float64{}, map[int]float64{}
	for _, j := range tr.Jobs {
		budgets[j.ID], bids[j.ID] = 200, float64(1+j.ID%5)
	}
	cfg := DefaultReplayConfig()
	cfg.MapSlots, cfg.ReduceSlots = 8, 8
	for _, workers := range []int{4, 1} {
		res, err := BranchSet(context.Background(), BranchSetConfig{
			Config:        cfg,
			Trace:         tr,
			PolicyFactory: func() Policy { return NewDynamicPriority(budgets, bids) },
			BranchEvents:  200,
			Workers:       workers,
		}, make([]WhatIf, 4))
		if err == nil || res != nil || !strings.Contains(err.Error(), "DynamicPriority") {
			t.Errorf("Workers: %d: BranchSet under a stateful prefix policy = %d results, %v; want an error naming DynamicPriority",
				workers, len(res), err)
		}
	}
}

// TestBranchSetTelemetry wires a Telemetry through a fan-out and checks
// the fork counters, finished-runs accounting, byte conservation, that
// the prefix's events were emitted once, not once per branch — and
// counted once in simmr_engine_events_total — and that every branch's
// departures are observed as completions, the jobs that arrived in the
// prefix included.
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
	if got := v["simmr_engine_forks_total"]; got != float64(len(branches)) {
		t.Errorf("simmr_engine_forks_total = %v, want %d", got, len(branches))
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
	// fired counts a snapshot's events of the paper's seven kinds: the
	// events its engine fired (obs package doc).
	fired := func(s obs.MetricsSnapshot) (n uint64) {
		for _, c := range s.ByKind[:obs.KindMapSlotAlloc] {
			n += c
		}
		return n
	}
	var want, wantFired uint64
	for i := range branches {
		ms := NewMetricsSink()
		cfg := DefaultReplayConfig()
		cfg.Sink = ms
		e, err := engine.New(cfg, tr, NewFIFO())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunEvents(total / 2); err != nil {
			t.Fatal(err)
		}
		prefix := ms.Snapshot()
		applyWhatIf(t, e, &branches[i])
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want, wantFired = prefix.Observed, fired(prefix)
		}
		want += ms.Snapshot().Observed - prefix.Observed
		wantFired += fired(ms.Snapshot()) - fired(prefix)
	}
	if got := v.Sum("simmr_engine_events_by_kind_total"); got != float64(want) {
		t.Errorf("sinks were delivered %v events, want the prefix once and %d suffixes: %d", got, len(branches), want)
	}
	var paperKinds float64
	for k := EngineEventKind(0); k < obs.KindMapSlotAlloc; k++ {
		paperKinds += v[`simmr_engine_events_by_kind_total{kind="`+k.String()+`"}`]
	}
	if got := v["simmr_engine_events_total"]; got != paperKinds || got != float64(wantFired) {
		t.Errorf("simmr_engine_events_total = %v, want the paper's seven kinds delivered, %v, and the prefix once and %d suffixes: %d",
			got, paperKinds, len(branches), wantFired)
	}
	if got, want := v["simmr_jobs_completed_total"], v[`simmr_engine_events_by_kind_total{kind="job-departure"}`]; got != want {
		t.Errorf("simmr_jobs_completed_total = %v, want the departures delivered, %v", got, want)
	}
}
