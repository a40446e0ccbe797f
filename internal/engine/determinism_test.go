package engine

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// TestReplayTwiceOnSharedTraceIdentical is the property test locking in
// the no-Clone contract: replaying the same (uncloned, shared) trace
// twice must produce identical results, which can only hold if the
// engine never mutates the trace.
func TestReplayTwiceOnSharedTraceIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, err := synth.ProductionTrace(40, rng)
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		DefaultConfig(),
		{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.3},
		{MapSlots: 64, ReduceSlots: 64, MinMapPercentCompleted: 0.05, NoShuffleModel: true},
	} {
		for _, policy := range []sched.Policy{sched.FIFO{}, sched.MinEDF{}, sched.Fair{}} {
			first, err := Run(cfg, tr, policy)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(cfg, tr, policy)
			if err != nil {
				t.Fatal(err)
			}
			if first.Makespan != second.Makespan || first.Events != second.Events {
				t.Fatalf("%s: second replay diverged: makespan %v vs %v, events %d vs %d",
					policy.Name(), first.Makespan, second.Makespan, first.Events, second.Events)
			}
			if !reflect.DeepEqual(first.Jobs, second.Jobs) {
				t.Fatalf("%s: job outcomes diverged across replays", policy.Name())
			}
		}
	}
	after, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if string(snapshot) != string(after) {
		t.Fatal("replay mutated the shared trace")
	}
}

// TestConcurrentRepliesShareOneTrace runs many engines over one trace at
// once; under -race this proves the read-only sharing contract.
func TestConcurrentRepliesShareOneTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, err := synth.ProductionTrace(20, rng)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(DefaultConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	const replicas = 8
	results := make([]*Result, replicas)
	errs := make([]error, replicas)
	var wg sync.WaitGroup
	wg.Add(replicas)
	for i := 0; i < replicas; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(DefaultConfig(), tr, sched.FIFO{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < replicas; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], ref) {
			t.Fatalf("concurrent replica %d diverged from serial reference", i)
		}
	}
}

// TestPreemptionSharedTrace covers the preemption path (Remove+Free of
// in-flight events) against the shared-trace contract.
func TestPreemptionSharedTrace(t *testing.T) {
	tpl := &trace.Template{
		AppName: "p", NumMaps: 8, NumReduces: 2,
		MapDurations:    []float64{10, 10, 10, 10, 10, 10, 10, 10},
		FirstShuffle:    []float64{2, 2},
		TypicalShuffle:  []float64{4, 4},
		ReduceDurations: []float64{3, 3},
	}
	tr := &trace.Trace{Jobs: []*trace.Job{
		{Arrival: 0, Deadline: 200, Template: tpl},
		{Arrival: 5, Deadline: 60, Template: tpl},
	}}
	tr.Normalize()
	cfg := Config{MapSlots: 4, ReduceSlots: 4, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}
	first, err := Run(cfg, tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(cfg, tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("preemptive replay is not deterministic on a shared trace")
	}
}

// TestSparseJobIDs exercises the map-fallback dispatch path (job IDs not
// dense 0..n-1), which Normalize-produced traces never hit.
func TestSparseJobIDs(t *testing.T) {
	tpl := &trace.Template{
		AppName: "sparse", NumMaps: 2, NumReduces: 0,
		MapDurations: []float64{1, 2},
	}
	tr := &trace.Trace{Jobs: []*trace.Job{
		{ID: 100, Arrival: 0, Template: tpl},
		{ID: 7, Arrival: 1, Template: tpl},
	}}
	res, err := Run(DefaultConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 || res.Jobs[0].ID != 100 || res.Jobs[1].ID != 7 {
		t.Fatalf("sparse-ID replay broken: %+v", res.Jobs)
	}
}
