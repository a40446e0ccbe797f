package simmr

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"simmr/internal/engine"
)

// TestSweepRegistersRun covers the ops-plane wiring of CapacitySweep:
// the run appears in the registry with sweep identity, accumulates the
// engines' event/job totals, and ends with outcome ok — plus a
// deadline-miss flight dump captured automatically from the 1-slot
// cell that blows the trace's deadline. The run names the policy its
// cells run: FIFO by default, and a PolicyFactory's, for a sweep and a
// branch set alike.
func TestSweepRegistersRun(t *testing.T) {
	reg := NewRunRegistry(8)
	tr := sweepTrace()
	pts, err := CapacitySweep(tr, SweepConfig{
		MapSlotCounts: []int{1, 8},
		Policy:        NewMinEDF(),
		Runs:          reg,
		Flight:        -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Active() != 0 {
		t.Fatalf("active after sweep = %d", reg.Active())
	}
	h := reg.Latest()
	if h == nil {
		t.Fatal("no run registered")
	}
	snap := h.Snapshot()
	if snap.Kind != "sweep" || snap.Outcome != "ok" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Done != len(pts) || snap.Total != len(pts) {
		t.Fatalf("progress %d/%d, want %d/%d", snap.Done, snap.Total, len(pts), len(pts))
	}
	if snap.Events == 0 || snap.Jobs != uint64(2*len(tr.Jobs)) {
		t.Fatalf("totals events=%d jobs=%d", snap.Events, snap.Jobs)
	}
	if snap.Policy == "" {
		t.Fatal("policy name missing")
	}
	if snap.TraceHash == "" {
		t.Fatal("trace hash missing")
	}
	// The 1-slot cell misses the deadline; its post-mortem must have
	// been captured.
	dumps := h.FlightDumps()
	found := false
	for _, d := range dumps {
		if d.Trigger == "deadline-miss" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no deadline-miss flight dump among %d dumps", len(dumps))
	}

	for _, c := range []struct {
		name, want string
		run        func() error
	}{
		{"default sweep", "FIFO", func() error {
			_, err := CapacitySweep(tr, SweepConfig{MapSlotCounts: []int{1, 8}, Runs: reg})
			return err
		}},
		{"factory sweep", "MaxEDF", func() error {
			_, err := CapacitySweep(tr, SweepConfig{MapSlotCounts: []int{1, 8}, PolicyFactory: NewMaxEDF, Runs: reg})
			return err
		}},
		{"factory branch set", "MaxEDF", func() error {
			_, err := BranchSet(context.Background(), BranchSetConfig{Trace: tr, BranchEvents: 4, PolicyFactory: NewMaxEDF, Runs: reg},
				[]WhatIf{{Name: "control"}})
			return err
		}},
	} {
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		if got := reg.Latest().Snapshot().Policy; got != c.want {
			t.Errorf("%s: run names policy %q, want %q", c.name, got, c.want)
		}
	}
}

// TestBatchRunOutcomes covers error and canceled outcomes: a failing
// spec ends the batch run with outcome "error" and an error flight
// dump; a pre-canceled context yields outcome "canceled" with the
// exactly-once aborted progress frame (done < total).
func TestBatchRunOutcomes(t *testing.T) {
	tr := sweepTrace()

	reg := NewRunRegistry(8)
	_, err := ReplayBatchCfg(context.Background(), BatchConfig{Runs: reg, Flight: 64}, []ReplaySpec{
		{Trace: tr},
		{Name: "broken", Trace: tr, Config: ReplayConfig{MapSlots: -1}},
	})
	if err == nil {
		t.Fatal("invalid spec config should fail the batch")
	}
	snap := reg.Latest().Snapshot()
	if snap.Kind != "batch" || snap.Outcome != "error" || snap.Error == "" {
		t.Fatalf("failed batch snapshot = %+v", snap)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg2 := NewRunRegistry(8)
	if _, err := ReplayBatchCfg(ctx, BatchConfig{Runs: reg2}, []ReplaySpec{{Trace: tr}}); err == nil {
		t.Fatal("pre-canceled batch should fail")
	}
	snap = reg2.Latest().Snapshot()
	if snap.Outcome != "canceled" {
		t.Fatalf("canceled batch outcome = %q", snap.Outcome)
	}
	if snap.Done >= snap.Total {
		t.Fatalf("aborted progress %d/%d should be partial", snap.Done, snap.Total)
	}
}

// TestBranchSetRegistersRun covers the branch fan-out: phases advance
// prefix -> branches, the prefix's events are counted once, and every
// branch's flight recorder is a Fork() of the prefix ring (its dump
// would contain prefix history).
func TestBranchSetRegistersRun(t *testing.T) {
	reg := NewRunRegistry(8)
	tr := sweepTrace()
	// Each branch, paused at the branch point, triggers every recorder
	// attached so far: its own (forked) one is among them. The shortcut
	// checker applies the edit again to a straight replay, which is no
	// fork and triggers nothing.
	var attached []int
	trigger := func(e *Engine) error {
		if e.ForkStats() != (engine.ForkStats{}) {
			attached = append(attached, reg.Latest().TriggerFlight())
		}
		return nil
	}
	res, err := BranchSet(context.Background(), BranchSetConfig{
		Trace:        tr,
		BranchEvents: 4,
		Workers:      1,
		Runs:         reg,
		Flight:       256,
	}, []WhatIf{{Name: "control", Mutate: trigger}, {Name: "edf", Policy: NewMinEDF(), Mutate: trigger}})
	if err != nil {
		t.Fatal(err)
	}
	h := reg.Latest()
	snap := h.Snapshot()
	if snap.Kind != "branch" || snap.Outcome != "ok" || snap.Phase != "branches" {
		t.Fatalf("branch snapshot = %+v", snap)
	}
	if snap.Done != 2 || snap.Total != 2 {
		t.Fatalf("branch progress %d/%d", snap.Done, snap.Total)
	}
	// Total events = prefix counted once + each branch's suffix. The
	// prefix pauses at the first macro-step boundary at or past event 4.
	e, err := engine.New(DefaultReplayConfig(), tr, NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunEvents(4); err != nil {
		t.Fatal(err)
	}
	sealed, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	prefix := sealed.Events()
	if want := prefix + (res[0].Events - prefix) + (res[1].Events - prefix); prefix < 4 || snap.Events != want {
		t.Fatalf("events = %d, want prefix %d + suffixes = %d", snap.Events, prefix, want)
	}
	// Both branch recorders were attached while the run was live, each
	// served its trigger, and the captures outlive the recorders: the
	// ended run keeps the dumps and has let the rings go.
	if len(attached) != 2 || attached[0] != 1 || attached[1] != 2 {
		t.Fatalf("recorders attached at each branch point = %v, want [1 2]", attached)
	}
	dumps := h.FlightDumps()
	if len(dumps) != 2 || dumps[0].Label != "control" || dumps[1].Label != "edf" {
		t.Fatalf("dumps after the run = %+v, want one per branch", dumps)
	}
	for _, d := range dumps {
		if d.Trigger != "trigger" || !d.Ended {
			t.Fatalf("branch %s dump: trigger %q ended %v", d.Label, d.Trigger, d.Ended)
		}
	}
	if snap.FlightDumps != 2 {
		t.Fatalf("snapshot counts %d dumps, want 2", snap.FlightDumps)
	}
	if n := h.TriggerFlight(); n != 0 {
		t.Fatalf("ended run still holds %d recorders", n)
	}
}

// TestConcurrentFanoutsWithScraper is -race coverage at the facade
// layer: sweeps and batches registering into one shared registry while
// a scraper goroutine snapshots every run it can see.
func TestConcurrentFanoutsWithScraper(t *testing.T) {
	reg := NewRunRegistry(16)
	tr, err := ProductionTrace(6, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range reg.List() {
				if h := reg.Get(s.ID); h != nil {
					h.Snapshot()
					h.FlightDumps()
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				_, err := CapacitySweep(tr, SweepConfig{
					MapSlotCounts: []int{2, 4},
					Runs:          reg,
					Flight:        128,
				})
				if err != nil {
					t.Error(err)
				}
				return
			}
			_, err := ReplayBatchCfg(context.Background(), BatchConfig{Runs: reg, Flight: 128},
				[]ReplaySpec{{Trace: tr}, {Trace: tr, Policy: NewFair()}})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	if reg.Active() != 0 {
		t.Fatalf("active = %d after all fan-outs ended", reg.Active())
	}
	if got := len(reg.List()); got != 4 {
		t.Fatalf("completed runs = %d, want 4", got)
	}
}
