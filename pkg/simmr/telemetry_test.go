package simmr

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestTelemetryConcurrentReplays is the acceptance test for the sharded
// registry: 24 replays on 8 workers share one Telemetry while a scraper
// goroutine loops the Prometheus and expvar merge paths. Run under
// -race this exercises every shard/merge pair; afterwards the merged
// totals must exactly match the summed per-replay results.
func TestTelemetryConcurrentReplays(t *testing.T) {
	tr := sweepTrace()
	tel := NewTelemetry()
	const n = 24
	specs := make([]ReplaySpec, n)
	for i := range specs {
		specs[i] = ReplaySpec{Trace: tr}
		if i%3 == 1 {
			specs[i].Policy = NewMinEDF()
		}
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
			if err := tel.Registry().WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			_ = tel.ExpvarValue()
		}
	}()

	results, err := ReplayBatchCfg(context.Background(),
		BatchConfig{Workers: 8, Telemetry: tel}, specs)
	close(stop)
	scraper.Wait()
	if err != nil {
		t.Fatal(err)
	}

	var wantEvents uint64
	wantJobs := 0
	for _, res := range results {
		wantEvents += res.Events
		wantJobs += len(res.Jobs)
	}
	v, ok := tel.ExpvarValue().(map[string]any)
	if !ok {
		t.Fatalf("ExpvarValue() = %T", tel.ExpvarValue())
	}
	if got := v["runs_finished"].(uint64); got != n {
		t.Errorf("runs_finished = %d, want %d", got, n)
	}
	if !v["done"].(bool) {
		t.Error("done = false after the batch returned")
	}
	if got := v["engine_events"].(uint64); got != wantEvents {
		t.Errorf("engine_events = %d, want %d", got, wantEvents)
	}
	if got := v["jobs"].(uint64); got != uint64(wantJobs) {
		t.Errorf("jobs = %d, want %d", got, wantJobs)
	}

	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp := sb.String()
	for _, line := range []string{
		"simmr_replays_total 24",
		"simmr_replay_wall_seconds_count 24",
		"simmr_job_completion_seconds_count 48",        // 2 jobs per replay
		"simmr_map_task_duration_seconds_count 1536",   // 2 jobs x 32 maps x 24 replays
		"simmr_reduce_task_duration_seconds_count 192", // 2 jobs x 4 reduces x 24 replays
	} {
		if !strings.Contains(exp, line+"\n") {
			t.Errorf("exposition missing %q", line)
		}
	}
	// The shared pool reports every acquisition to the registry.
	if !strings.Contains(exp, `simmr_engine_pool_gets_total{reused="false"}`) {
		t.Error("exposition missing pool get samples")
	}
}

// TestCapacitySweepTelemetryInert pins that attaching Telemetry changes
// nothing about sweep results — the sink only observes — and that the
// sweep's replay count lands in the registry.
func TestCapacitySweepTelemetryInert(t *testing.T) {
	tr := sweepTrace()
	base := SweepConfig{MapSlotCounts: []int{2, 4, 8, 16}}
	plain, err := CapacitySweep(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	instr := base
	instr.Telemetry = tel
	observed, err := CapacitySweep(tr, instr)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := json.Marshal(plain)
	ob, _ := json.Marshal(observed)
	if string(pb) != string(ob) {
		t.Fatalf("telemetry perturbed sweep results:\n%s\n%s", pb, ob)
	}
	v := tel.ExpvarValue().(map[string]any)
	if got := v["runs_finished"].(uint64); got != 4 {
		t.Errorf("runs_finished = %d, want 4", got)
	}
	if !v["done"].(bool) {
		t.Error("done = false after the sweep returned")
	}
}

// TestExpectedRunsConvergeAfterFailures: runs_expected is cumulative for
// the life of a Telemetry, so a fan-out that does not finish must give
// back what it announced — a cancelled sweep, a batch with a failing
// spec and a branch set whose prefix fails each used to leave it
// inflated, and the session never reported done again.
func TestExpectedRunsConvergeAfterFailures(t *testing.T) {
	tr := sweepTrace()
	tel := NewTelemetry()

	ctx, cancel := context.WithCancel(context.Background())
	_, err := CapacitySweepCtx(ctx, tr, SweepConfig{
		MapSlotCounts: []int{1, 2, 3, 4, 5, 6, 7, 8}, Workers: 1, Telemetry: tel,
		// Cancel from inside the third cell: the sweep stops after it.
		SinkFactory: func(m, _ int) Sink {
			if m == 3 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
	if _, err := ReplayBatchCfg(context.Background(), BatchConfig{Workers: 1, Telemetry: tel}, []ReplaySpec{
		{Trace: tr}, {Trace: tr}, {Name: "broken", Trace: tr, Config: ReplayConfig{MapSlots: -1}}, {Trace: tr},
	}); err == nil {
		t.Fatal("invalid spec config should fail the batch")
	}
	if _, err := BranchSet(context.Background(), BranchSetConfig{
		Trace: tr, Config: ReplayConfig{MapSlots: -1}, Telemetry: tel,
	}, []WhatIf{{}, {}, {}}); err == nil {
		t.Fatal("invalid prefix config should fail the branch set")
	}
	if _, err := CapacitySweep(tr, SweepConfig{MapSlotCounts: []int{2, 4}, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}

	v := tel.ExpvarValue().(map[string]any)
	expected, finished := v["runs_expected"].(int64), v["runs_finished"].(uint64)
	// Three sweep cells and two batch specs ran before their fan-outs
	// stopped, then the clean sweep's two.
	if finished != 7 || uint64(expected) != finished || !v["done"].(bool) {
		t.Fatalf("runs_expected = %d, runs_finished = %d, done = %v; want 7, 7, true", expected, finished, v["done"])
	}
}
