package cluster_test

import (
	"bytes"
	"reflect"
	"testing"

	"simmr/internal/cluster"
	"simmr/internal/hadooplog"
	"simmr/internal/profiler"
	"simmr/internal/sched"
	"simmr/internal/stats"
	"simmr/internal/workload"
)

// stragglerSpec produces a job whose map durations have a long tail so
// speculation has something to chase.
func stragglerSpec(maps int) workload.Spec {
	return workload.Spec{
		App: "straggly", Dataset: "t",
		NumMaps: maps, NumReduces: 0, BlockMB: 64,
		// LogNormal: heavy tail — a few maps run several times the median.
		MapCompute:    stats.LogNormal{Mu: 2, Sigma: 0.9},
		Selectivity:   0,
		ReduceCompute: stats.Constant{V: 1},
	}
}

func specConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Workers = 16
	cfg.SpeculativeExecution = true
	return cfg
}

func TestSpeculationValidation(t *testing.T) {
	cfg := specConfig()
	cfg.SpeculativeSlowFactor = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("slow factor <= 1 should fail")
	}
	cfg = specConfig()
	cfg.SpeculativeMinCompleted = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("min completed < 1 should fail")
	}
	// Invalid values are fine while speculation is off.
	cfg.SpeculativeExecution = false
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpeculationCompletesAndStaysConsistent(t *testing.T) {
	res, err := cluster.Run(specConfig(), []cluster.Job{{Spec: stragglerSpec(64)}}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if len(jr.Maps) != 64 {
		t.Fatalf("maps = %d", len(jr.Maps))
	}
	for i, m := range jr.Maps {
		if m.End <= m.Start {
			t.Fatalf("map %d span invalid: %+v", i, m)
		}
		if m.End > jr.MapStageEnd {
			t.Fatalf("map %d ends after map stage end", i)
		}
	}
}

func TestSpeculationNeverHurtsOnStragglyJobs(t *testing.T) {
	// Same seed with and without speculation: the speculative run's
	// makespan must be <= the plain run's (the winner of a duplicate
	// pair finishes no later than the original attempt).
	var withSpec, without float64
	for _, enabled := range []bool{true, false} {
		cfg := specConfig()
		cfg.SpeculativeExecution = enabled
		res, err := cluster.Run(cfg, []cluster.Job{{Spec: stragglerSpec(64)}}, sched.FIFO{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if enabled {
			withSpec = res.Makespan
		} else {
			without = res.Makespan
		}
	}
	// Duplicate launches consume extra RNG draws, so the runs diverge;
	// allow a modest tolerance rather than strict dominance.
	if withSpec > without*1.15 {
		t.Fatalf("speculation made things much worse: %.1f vs %.1f", withSpec, without)
	}
}

// The paper's observation: on the (well-balanced) testbed workload,
// speculation yields no significant improvement.
func TestSpeculationInsignificantOnPaperWorkload(t *testing.T) {
	spec := workload.Apps()[3].Spec(0) // Sort
	var makespans [2]float64
	for i, enabled := range []bool{false, true} {
		cfg := cluster.DefaultConfig()
		cfg.SpeculativeExecution = enabled
		res, err := cluster.Run(cfg, []cluster.Job{{Spec: spec}}, sched.FIFO{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		makespans[i] = res.Makespan
	}
	diff := makespans[0] - makespans[1]
	if diff < 0 {
		diff = -diff
	}
	if diff/makespans[0] > 0.10 {
		t.Fatalf("speculation changed Sort makespan by %.1f%%, expected insignificant",
			100*diff/makespans[0])
	}
}

func TestSpeculativeAttemptsAppearInLogsOnce(t *testing.T) {
	var buf bytes.Buffer
	w := hadooplog.NewWriter(&buf)
	if _, err := cluster.Run(specConfig(), []cluster.Job{{Spec: stragglerSpec(48)}}, sched.FIFO{}, w); err != nil {
		t.Fatal(err)
	}
	// The profiler must still produce a consistent 48-map template even
	// though some tasks had two attempts (losers have no FINISH record).
	tr, err := profiler.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Jobs[0].Template.NumMaps != 48 {
		t.Fatalf("profiled maps = %d, want 48", tr.Jobs[0].Template.NumMaps)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSpeculationDeterministic repeats one seeded run with several map
// slots per node: the attempts a tracker launches in one heartbeat start
// together, so they become equally overdue at once, and which of them
// is duplicated must not depend on iteration order.
func TestSpeculationDeterministic(t *testing.T) {
	cfg := specConfig()
	cfg.MapSlotsPerNode = 4
	jobs := []cluster.Job{{Spec: stragglerSpec(64)}, {Spec: stragglerSpec(48)}}
	first, err := cluster.Run(cfg, jobs, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := cluster.Run(cfg, jobs, sched.FIFO{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, first) {
			t.Fatalf("run %d differs from run 0 under the same seed", i+1)
		}
	}
}

func TestSpeculationSlotAccounting(t *testing.T) {
	// After a run with speculation, every slot must be free again:
	// re-running a second job on the same simulator state isn't possible
	// (Run is one-shot), so assert via event-count sanity and completion.
	res, err := cluster.Run(specConfig(), []cluster.Job{
		{Spec: stragglerSpec(40)},
		{Spec: stragglerSpec(40), Arrival: 10},
	}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.Finish <= 0 {
			t.Fatal("a job never finished: slot leak under speculation")
		}
	}
}
