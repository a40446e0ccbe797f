package simmr

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"simmr/internal/obs"
)

// sparseTestTrace is a sparse multi-tenant stream collected into a trace
// (few jobs active at once, shared templates, half with deadlines) — the
// shape of a provisioning what-if.
func sparseTestTrace(t testing.TB, jobs int, seed int64) *Trace {
	t.Helper()
	s, err := NewTraceStream(StreamConfig{
		Name: "sparse", Jobs: jobs, MeanInterArrival: 60, TemplatePool: 64,
		DeadlineFraction: 0.5, DeadlineSlack: 900,
		Shapes: []WeightedShape{{Shape: MultiTenantShape(), Weight: 1}},
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// freshSweep is the sweep's oracle: every cell replayed by Replay on an
// engine of its own, condensed by the same sweepPoint.
func freshSweep(t *testing.T, tr *Trace, counts []int, policy Policy) []SweepPoint {
	t.Helper()
	var pts []SweepPoint
	for _, m := range counts {
		for _, r := range counts {
			res, err := Replay(ReplayConfig{MapSlots: m, ReduceSlots: r, MinMapPercentCompleted: 0.05}, tr, policy)
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, sweepPoint(len(pts), sweepCell{m, r}, res))
		}
	}
	return pts
}

// TestSweepEmptyReduceSlotCountsIsSquare: an empty but non-nil
// ReduceSlotCounts used to build a grid of zero cells and return
// (nil, nil); both spellings of "no reduce axis" are the square sweep.
func TestSweepEmptyReduceSlotCountsIsSquare(t *testing.T) {
	tr := sweepTrace()
	viaNil, err := CapacitySweep(tr, SweepConfig{MapSlotCounts: []int{8, 16}})
	if err != nil {
		t.Fatal(err)
	}
	viaEmpty, err := CapacitySweep(tr, SweepConfig{MapSlotCounts: []int{8, 16}, ReduceSlotCounts: []int{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(viaEmpty) != 2 || !reflect.DeepEqual(viaEmpty, viaNil) {
		t.Fatalf("ReduceSlotCounts: []int{} swept %v, nil swept %v", viaEmpty, viaNil)
	}
	for _, p := range viaEmpty {
		if p.ReduceSlots != p.MapSlots {
			t.Fatalf("cell %d: %d+%d slots is not square", p.Cell, p.MapSlots, p.ReduceSlots)
		}
	}
}

// TestReplayAllocBudget: a pooled replay's steady state allocates its
// Result and the outcome slice (136 B per job) and nothing per event —
// bare, with a flight recorder, and under the stack a session tees on
// (ReplayBatchCfg's per spec under Runs, Flight and Telemetry). The
// sinks are built once and events reach them in the engine's own block,
// which survives pooling, so observation gets the bare replay's budget:
// one allocation over it means the block stopped surviving the pool or a
// sink allocates per block. 200 jobs take 2 mallocs and 27 312 B; the
// budget — under 3 on average — leaves room for the telemetry sink's
// rare amortized ones (0.1 to 0.3 a run) and none for a third per run.
func TestReplayAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const maxAllocs, maxBytes, runs = 3, 29 << 10, 20
	// One P, as testing.AllocsPerRun measures: a goroutine that changes Ps
	// between Put and Get finds its pool empty and builds an engine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr, err := ProductionTrace(200, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sink Sink
	}{
		{"bare", nil},
		{"flight", obs.NewFlightRecorder(0)},
		{"session", TeeSinks(NewMetricsSink(), obs.NewFlightRecorder(0), NewTelemetry().EngineSink())},
	} {
		cfg := DefaultReplayConfig()
		cfg.Sink = c.sink
		var pool ReplayPool
		var before, after runtime.MemStats
		for i := 0; i <= runs; i++ {
			if i == 1 { // the first run armed the engine
				runtime.ReadMemStats(&before)
			}
			if _, err := pool.Run(cfg, tr, NewFIFO()); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.2f mallocs, %.0f B per pooled replay", c.name, allocs, bytes)
		if allocs >= maxAllocs || bytes > maxBytes {
			t.Errorf("%s: pooled replay of %d jobs costs %.2f mallocs, %.0f B; budget under %d, %d", c.name, len(tr.Jobs), allocs, bytes, maxAllocs, maxBytes)
		}
	}
}

// TestSweepAllocBudget: a warmed sweep allocates per sweep and per
// cell, never per job — each cell folds its outcome on a pooled engine
// instead of taking a Result. 64 cells cost 81 mallocs when written
// (the grid, the fan-out's goroutines and channels, one cell label
// each) and 11 to 19 since the run plan formats a label only for a
// recorder; at 136 B of outcome per job the same sweep took over 9 000.
func TestSweepAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const budget = 40 // mallocs per 64-cell sweep: ~2× what it takes; a Result per cell would be +128
	counts := []int{16, 24, 32, 48, 64, 80, 96, 128}
	tr := sparseTestTrace(t, 1000, 1)
	for _, workers := range []int{1, 2} {
		cfg := SweepConfig{MapSlotCounts: counts, ReduceSlotCounts: counts, Workers: workers}
		sweep := func() {
			if _, err := CapacitySweep(tr, cfg); err != nil {
				t.Fatal(err)
			}
		}
		sweep() // arm the engines
		got := testing.AllocsPerRun(10, sweep)
		t.Logf("Workers: %d: %.0f mallocs per warmed 64-cell sweep", workers, got)
		if got > budget {
			t.Errorf("Workers: %d: warmed 8×8 sweep of %d jobs costs %.0f mallocs, budget %d", workers, len(tr.Jobs), got, budget)
		}
	}
}

// TestSharedPoolSerialThenParallel: engines outlive the call that built
// them, so a Workers: 4 sweep may run on an engine a Workers: 1 sweep
// left behind next to ones it builds itself, on one a sweep under
// another policy dirtied, and on what a BranchSet put back — forks with
// a moved deadline, a borrowed ID map and a switched policy. Whatever the
// pool holds, every sweep equals the fresh-engine oracle.
func TestSharedPoolSerialThenParallel(t *testing.T) {
	tr := sparseTestTrace(t, 300, 2)
	counts := []int{4, 16, 64}
	for _, p := range []Policy{NewFIFO(), NewMinEDF(), NewCapacity([]float64{0.7, 0.3})} {
		want := freshSweep(t, tr, counts, p)
		last := latestJob(tr)
		late := func(e *Engine) error { return e.SetDeadline(last.ID, last.Arrival+1) }
		if _, err := BranchSet(context.Background(), BranchSetConfig{Trace: tr, PolicyFactory: func() Policy { return p }, BranchEvents: 500, Workers: 2},
			[]WhatIf{{Policy: NewMaxEDF()}, {Mutate: late}, {}}); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 1, 4, 4} {
			got, err := CapacitySweep(tr, SweepConfig{MapSlotCounts: counts, ReduceSlotCounts: counts, Policy: p, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, Workers: %d: sweep on the shared pool differs from fresh engines", p.Name(), workers)
			}
		}
	}
}

// TestSharedPoolBoundsPinnedMemory: the process-wide pool must not park
// a big replay's working set under a session of small ones. One
// 100 000-job replay (13.6 MB of outcomes, 2.4 MB of schedule and
// by-position table) followed by ten 1 000-job
// sweeps leaves the heap within 8 MiB of where ten such sweeps alone
// leave it — by Put's size rule, not by the collector: the heap is read
// after a single GC, which frees garbage but not yet an idle engine
// (sync.Pool keeps those through one cycle), and after the two GCs that
// empty the pool altogether.
func TestSharedPoolBoundsPinnedMemory(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const slack = 8 << 20
	small := sparseTestTrace(t, 1000, 3)
	counts := []int{16, 32, 64, 128}
	sweeps := func() {
		for i := 0; i < 10; i++ {
			if _, err := CapacitySweep(small, SweepConfig{MapSlotCounts: counts, ReduceSlotCounts: counts}); err != nil {
				t.Fatal(err)
			}
		}
	}
	inUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	sweeps()
	base := inUse()
	idle := inUse()

	func() {
		big := sparseTestTrace(t, 100_000, 4)
		res, err := ReplayBatchCfg(context.Background(), BatchConfig{Workers: 1},
			[]ReplaySpec{{Trace: big, Config: ReplayConfig{MapSlots: 64, ReduceSlots: 64, MinMapPercentCompleted: 0.05}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res[0].Jobs) != len(big.Jobs) {
			t.Fatalf("big replay returned %d jobs", len(res[0].Jobs))
		}
	}()
	sweeps()
	after := inUse()
	t.Logf("HeapInuse: %.1f MiB after the sweeps alone, %.1f MiB after the big replay and the sweeps", float64(base)/(1<<20), float64(after)/(1<<20))
	if drained := inUse(); drained > idle+slack {
		t.Errorf("HeapInuse %.1f MiB once the pool has drained, %.1f MiB before the big replay", float64(drained)/(1<<20), float64(idle)/(1<<20))
	}
	if after > base+slack {
		t.Fatalf("HeapInuse %.1f MiB after a 100k-job replay and ten 1k-job sweeps, %.1f MiB after the sweeps alone: the pool pins more than %d MiB",
			float64(after)/(1<<20), float64(base)/(1<<20), slack>>20)
	}
}
