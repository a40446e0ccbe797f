package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// reuseScenario is one (config, trace, policy) combination the reuse
// property tests replay.
type reuseScenario struct {
	name   string
	cfg    Config
	tr     *trace.Trace
	policy sched.Policy
}

func reuseScenarios(t *testing.T) []reuseScenario {
	t.Helper()
	rngA := rand.New(rand.NewSource(21))
	trA, err := synth.ProductionTrace(30, rngA)
	if err != nil {
		t.Fatal(err)
	}
	rngB := rand.New(rand.NewSource(22))
	trB, err := synth.ProductionTrace(8, rngB)
	if err != nil {
		t.Fatal(err)
	}
	tpl := &trace.Template{
		AppName: "re", NumMaps: 6, NumReduces: 2,
		MapDurations:    []float64{5, 5, 5, 5, 5, 5},
		FirstShuffle:    []float64{1, 1},
		TypicalShuffle:  []float64{2, 2},
		ReduceDurations: []float64{3, 3},
	}
	trDeadline := &trace.Trace{Jobs: []*trace.Job{
		{Arrival: 0, Deadline: 100, Template: tpl},
		{Arrival: 2, Deadline: 40, Template: tpl},
	}}
	trDeadline.Normalize()
	trSparse := &trace.Trace{Jobs: []*trace.Job{
		{ID: 13, Arrival: 0, Template: tpl},
		{ID: 5, Arrival: 1, Template: tpl},
	}}
	return []reuseScenario{
		{"default-fifo", DefaultConfig(), trA, sched.FIFO{}},
		{"small-cluster-minedf", Config{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.3}, trB, sched.MinEDF{}},
		{"mid-cluster-fair", Config{MapSlots: 16, ReduceSlots: 16, MinMapPercentCompleted: 0.05}, trB, sched.Fair{}},
		{"preempt-maxedf", Config{MapSlots: 2, ReduceSlots: 2, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}, trDeadline, sched.MaxEDF{}},
		{"sparse-ids", DefaultConfig(), trSparse, sched.FIFO{}},
		{"ablation-noshuffle", Config{MapSlots: 32, ReduceSlots: 32, MinMapPercentCompleted: 0.05, NoShuffleModel: true}, trA, sched.FIFO{}},
	}
}

// TestResetReplayIdentical is the engine-reuse determinism property:
// one engine Reset through every scenario (in both directions, so each
// scenario runs on state dirtied by a *different* predecessor) must
// reproduce the fresh-engine result byte for byte.
func TestResetReplayIdentical(t *testing.T) {
	scenarios := reuseScenarios(t)
	fresh := make([]*Result, len(scenarios))
	for i, sc := range scenarios {
		res, err := Run(sc.cfg, sc.tr, sc.policy)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", sc.name, err)
		}
		fresh[i] = res
	}
	reused := &Engine{}
	order := make([]int, 0, 2*len(scenarios))
	for i := range scenarios {
		order = append(order, i)
	}
	for i := len(scenarios) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for _, i := range order {
		sc := scenarios[i]
		if err := reused.Reset(sc.cfg, sc.tr, sc.policy); err != nil {
			t.Fatalf("%s: Reset: %v", sc.name, err)
		}
		res, err := reused.Run()
		if err != nil {
			t.Fatalf("%s: reused run: %v", sc.name, err)
		}
		if !reflect.DeepEqual(res, fresh[i]) {
			t.Fatalf("%s: reused engine diverged from fresh engine", sc.name)
		}
	}
}

// TestRunTwiceWithoutResetRejected: a second Run on dirty state must be
// refused, not silently replay garbage.
func TestRunTwiceWithoutResetRejected(t *testing.T) {
	sc := reuseScenarios(t)[0]
	e, err := New(sc.cfg, sc.tr, sc.policy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run without Reset did not error")
	}
	if err := e.Reset(sc.cfg, sc.tr, sc.policy); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run after Reset failed: %v", err)
	}
}

// TestReusedEngineDoesNotCorruptPriorResults: outcomes returned by one
// run must stay intact after the engine is reset and rerun — the
// Result-escape half of the reuse contract.
func TestReusedEngineDoesNotCorruptPriorResults(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr, err := synth.ProductionTrace(10, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MapSlots: 16, ReduceSlots: 16, MinMapPercentCompleted: 0.05}
	e, err := New(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("setup: fresh runs disagree")
	}
	// Rerun the same engine on a different cluster size; the first
	// result must not change underneath its holder.
	cfg2 := Config{MapSlots: 4, ReduceSlots: 4, MinMapPercentCompleted: 0.05}
	if err := e.Reset(cfg2, tr, sched.FIFO{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("reusing the engine mutated a previously returned Result")
	}
}

// TestPoolRunIdentical: pooled runs must match direct runs for every
// scenario, including when the pool cycles one engine through all of
// them back to back.
func TestPoolRunIdentical(t *testing.T) {
	var pool Pool
	for round := 0; round < 3; round++ {
		for _, sc := range reuseScenarios(t) {
			want, err := Run(sc.cfg, sc.tr, sc.policy)
			if err != nil {
				t.Fatalf("%s: direct: %v", sc.name, err)
			}
			got, err := pool.Run(sc.cfg, sc.tr, sc.policy)
			if err != nil {
				t.Fatalf("%s: pooled: %v", sc.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: pooled result diverged (round %d)", sc.name, round)
			}
		}
	}
}

// TestPoolConcurrentDeterminism hammers one pool from many goroutines
// over a shared trace; under -race this checks both the data-race
// freedom of pooled reuse and result determinism.
func TestPoolConcurrentDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tr, err := synth.ProductionTrace(15, rng)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(DefaultConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	var pool Pool
	const goroutines = 8
	const runsEach = 5
	results := make([][]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < runsEach; r++ {
				res, err := pool.Run(DefaultConfig(), tr, sched.FIFO{})
				if err != nil {
					errs[g] = err
					return
				}
				results[g] = append(results[g], res)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for r, res := range results[g] {
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("goroutine %d run %d diverged from serial reference", g, r)
			}
		}
	}
}

// TestPoolRejectsInvalidThenRecovers: a Get that fails validation must
// not poison the pool for the next caller.
func TestPoolRejectsInvalidThenRecovers(t *testing.T) {
	sc := reuseScenarios(t)[0]
	var pool Pool
	if _, err := pool.Run(sc.cfg, sc.tr, nil); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := pool.Run(Config{MapSlots: -1}, sc.tr, sc.policy); err == nil {
		t.Fatal("invalid config accepted")
	}
	res, err := pool.Run(sc.cfg, sc.tr, sc.policy)
	if err != nil || res == nil {
		t.Fatalf("pool did not recover from rejected arming: %v", err)
	}
}

// TestReArmAcrossPoliciesKeepsAllocFloor cycles one engine through
// FIFO → MaxEDF → MinEDF → FIFO: every replay must equal a fresh one,
// and — the scheduling index being recycled across policies, not
// rebuilt — the steady state must stay at the pooled-replay allocation
// bound: the Result and its outcome slice, at most 4 per replay.
func TestReArmAcrossPoliciesKeepsAllocFloor(t *testing.T) {
	tr, err := synth.MultiTenantTrace(300, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cycle := []sched.Policy{sched.FIFO{}, sched.MaxEDF{}, sched.MinEDF{}, sched.FIFO{}}
	e, err := New(cfg, tr, cycle[0])
	if err != nil {
		t.Fatal(err)
	}
	rearm := func(p sched.Policy) *Result {
		if err := e.Reset(cfg, tr, p); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, p := range cycle {
		want, err := Run(cfg, tr, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := rearm(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("re-armed %s replay diverged from a fresh engine's", p.Name())
		}
	}
	if raceDetectorEnabled {
		return // the detector's own allocations make the count meaningless
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, p := range cycle {
			rearm(p)
		}
	})
	if perReplay := allocs / float64(len(cycle)); perReplay > 4 {
		t.Fatalf("re-arming across policies allocates %.1f per replay, want ≤ 4", perReplay)
	}
}
