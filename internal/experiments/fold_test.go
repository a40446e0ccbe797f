package experiments

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/metrics"
	"simmr/internal/plan"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/pkg/simmr"
)

// TestUtilityFoldMatchesMetrics: the in-place utility fold is the
// paper's metric, term for term and in the same summation order as
// metrics.DeadlineExcess summed over the same outcomes — what keeps
// results/*.tsv byte-identical.
func TestUtilityFoldMatchesMetrics(t *testing.T) {
	tr, err := synth.MultiTenantTrace(400, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(engine.Config{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05}, tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, j := range res.Jobs {
		want += metrics.DeadlineExcess(j.Finish-j.Arrival, j.Deadline-j.Arrival)
	}
	if want == 0 {
		t.Fatal("fixture misses no deadline; the comparison would be vacuous")
	}
	if got := utility(res); got != want {
		t.Fatalf("utility fold = %v, summed metrics.DeadlineExcess = %v", got, want)
	}
	viaFold, err := runUtility(plan.Begin(plan.Options{}, plan.Run{}), engine.Config{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05}, tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	if viaFold != want {
		t.Fatalf("runUtility on a bare plan = %v, want %v", viaFold, want)
	}
}

// TestSharedPoolConcurrentFanOuts: a capacity sweep, a replay batch and
// a deadline sweep — traces of 18 to 600 jobs, four policies, spans on
// and off — run at once on the process-wide engine pool, so each keeps
// drawing engines the others dirtied. Every one must equal its own
// serial, undisturbed run; under -race this is also the proof that a
// folded Result never outlives its callback into another goroutine's
// replay.
func TestSharedPoolConcurrentFanOuts(t *testing.T) {
	big, err := synth.MultiTenantTrace(600, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := synth.ProductionTrace(40, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(workers int) any {
		pts, err := simmr.CapacitySweep(big, simmr.SweepConfig{
			MapSlotCounts: []int{4, 8, 16, 32}, ReduceSlotCounts: []int{4, 16}, Policy: sched.MinEDF{}, Workers: workers})
		if err != nil {
			t.Error(err)
		}
		return pts
	}
	batch := func(workers int) any {
		res, err := simmr.ReplayBatchCfg(context.Background(), simmr.BatchConfig{Workers: workers}, []simmr.ReplaySpec{
			{Trace: mid},
			{Trace: big, Policy: sched.Fair{}},
			{Trace: mid, Policy: sched.Capacity{Shares: []float64{2, 1}}},
			{Trace: big, Config: simmr.ReplayConfig{MapSlots: 6, ReduceSlots: 6, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}, Policy: sched.MaxEDF{}},
		})
		if err != nil {
			t.Error(err)
		}
		return res
	}
	deadlines := func(int) any {
		cfg := quickSweep(DefaultFigure7Config())
		cfg.DeadlineFactors = []float64{1.5}
		r, err := Figure7(cfg)
		if err != nil {
			t.Error(err)
			return nil
		}
		return r.Points
	}
	fanOuts := []func(workers int) any{sweep, batch, deadlines}
	want := make([]any, len(fanOuts))
	for i, f := range fanOuts {
		want[i] = f(1)
	}
	if t.Failed() {
		t.FailNow()
	}
	for round := 0; round < 3; round++ {
		got := make([]any, len(fanOuts))
		var wg sync.WaitGroup
		for i, f := range fanOuts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = f(3)
			}()
		}
		wg.Wait()
		for i := range fanOuts {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d: fan-out %d run beside the others differs from its serial run", round, i)
			}
		}
	}
}
