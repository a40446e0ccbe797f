package simmr

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"testing"

	"simmr/internal/plan/plantest"
	"simmr/internal/telemetry/telemetrytest"
)

// TestTelemetryConcurrentReplays is the acceptance test for the shared
// registry: 24 replays on 8 workers write one Telemetry while a scraper
// goroutine loops the Prometheus exposition. Each spec has a slow-start
// fraction of its own, so no replay answers for another and all 24
// simulate. Run under -race this exercises every writer against the
// scrape; afterwards the totals must exactly match the summed
// per-replay results.
func TestTelemetryConcurrentReplays(t *testing.T) {
	tr := sweepTrace()
	tel := NewTelemetry()
	const n = 24
	specs := make([]ReplaySpec, n)
	for i := range specs {
		cfg := DefaultReplayConfig()
		cfg.MinMapPercentCompleted = float64(i+1) / 100
		specs[i] = ReplaySpec{Trace: tr, Config: cfg}
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
		}
	}()

	tally := plantest.Shortcuts.Watch(tr)
	results, err := ReplayBatchCfg(context.Background(),
		BatchConfig{Workers: 8, Telemetry: tel}, specs)
	tl := tally()
	close(stop)
	scraper.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Simulated) != n {
		t.Fatalf("%d of %d specs simulated, want every one", len(tl.Simulated), n)
	}

	var wantEvents uint64
	wantJobs := 0
	for _, res := range results {
		wantEvents += res.Events
		wantJobs += len(res.Jobs)
	}
	v := telemetrytest.Scrape(t, tel.Registry())
	for series, want := range map[string]float64{
		"simmr_replays_total":                      n,
		"simmr_engine_events_total":                float64(wantEvents),
		"simmr_jobs_completed_total":               float64(wantJobs),
		"simmr_replay_wall_seconds_count":          n,
		"simmr_job_completion_seconds_count":       2 * n,      // 2 jobs per replay
		"simmr_map_task_duration_seconds_count":    2 * 32 * n, // x 32 maps
		"simmr_reduce_task_duration_seconds_count": 2 * 4 * n,  // x 4 reduces
	} {
		if got, ok := v[series]; !ok || got != want {
			t.Errorf("%s = %v (present: %v), want %v", series, got, ok, want)
		}
	}
	// The shared pool reports every acquisition to the registry.
	if _, ok := v[`simmr_engine_pool_gets_total{reused="false"}`]; !ok {
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
	if got := telemetrytest.Scrape(t, tel.Registry())["simmr_replays_total"]; got != 4 {
		t.Errorf("simmr_replays_total = %v, want 4", got)
	}
}
