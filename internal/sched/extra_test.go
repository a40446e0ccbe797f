package sched

import (
	"testing"

	"simmr/internal/trace"
)

func TestDynamicPriorityHighestBidWins(t *testing.T) {
	dp := NewDynamicPriority(
		map[int]float64{0: 100, 1: 100},
		map[int]float64{0: 1, 1: 5},
	)
	q := []*JobInfo{mkJob(0, 0, 0, 10, 1), mkJob(1, 5, 0, 10, 1)}
	if got := dp.ChooseNextMapTask(q); got != 1 {
		t.Fatalf("pick = %d, want 1 (higher bid)", got)
	}
	// Budget charged on win.
	if dp.Budgets[1] != 95 {
		t.Fatalf("budget after win = %v, want 95", dp.Budgets[1])
	}
	if dp.Budgets[0] != 100 {
		t.Fatalf("loser charged: %v", dp.Budgets[0])
	}
}

func TestDynamicPriorityBudgetExhaustionDropsPriority(t *testing.T) {
	dp := NewDynamicPriority(
		map[int]float64{0: 100, 1: 8}, // job 1 affords one 5-unit bid
		map[int]float64{0: 1, 1: 5},
	)
	q := []*JobInfo{mkJob(0, 0, 0, 10, 1), mkJob(1, 5, 0, 10, 1)}
	if got := dp.ChooseNextMapTask(q); got != 1 {
		t.Fatalf("first pick = %d, want 1", got)
	}
	// Remaining budget 3 < bid 5: job 1 now bids 0, job 0's bid 1 wins.
	if got := dp.ChooseNextMapTask(q); got != 0 {
		t.Fatalf("second pick = %d, want 0 (job 1 out of budget)", got)
	}
}

func TestDynamicPriorityZeroValueActsLikeFIFO(t *testing.T) {
	dp := &DynamicPriority{}
	q := []*JobInfo{mkJob(0, 9, 0, 1, 0), mkJob(1, 2, 0, 1, 0)}
	if got := dp.ChooseNextMapTask(q); got != 1 {
		t.Fatalf("pick = %d, want 1 (earliest arrival among zero bids)", got)
	}
}

func TestDynamicPriorityReduceSide(t *testing.T) {
	dp := NewDynamicPriority(map[int]float64{2: 50}, map[int]float64{2: 2})
	a := mkJob(1, 0, 0, 1, 4)
	b := mkJob(2, 5, 0, 1, 4)
	if got := dp.ChooseNextReduceTask([]*JobInfo{a, b}); got != 1 {
		t.Fatalf("pick = %d, want 1 (only bidder)", got)
	}
	if dp.Budgets[2] != 48 {
		t.Fatalf("budget = %v", dp.Budgets[2])
	}
}

func TestDynamicPriorityNothingEligible(t *testing.T) {
	dp := NewDynamicPriority(nil, nil)
	j := mkJob(0, 0, 0, 1, 0)
	j.ScheduledMaps = 1
	if got := dp.ChooseNextMapTask([]*JobInfo{j}); got != -1 {
		t.Fatalf("pick = %d, want -1", got)
	}
}

func TestReduceSideOfEDFPolicies(t *testing.T) {
	q := []*JobInfo{
		mkJob(0, 0, 900, 1, 4),
		mkJob(1, 1, 100, 1, 4),
	}
	if got := (MaxEDF{}).ChooseNextReduceTask(q); got != 1 {
		t.Fatalf("MaxEDF reduce pick = %d", got)
	}
	if got := (MinEDF{}).ChooseNextReduceTask(q); got != 1 {
		t.Fatalf("MinEDF reduce pick = %d", got)
	}
	c := Capacity{Shares: []float64{0.5, 0.5}}
	if got := c.ChooseNextReduceTask(q); got < 0 {
		t.Fatalf("Capacity reduce pick = %d", got)
	}
	// Capacity with no shares degrades to FIFO on the reduce side too.
	if got := (Capacity{}).ChooseNextReduceTask(q); got != 0 {
		t.Fatalf("shareless Capacity reduce pick = %d", got)
	}
}

func TestCapacityZeroShareQueue(t *testing.T) {
	// A zero-share queue must still receive slots (treated as epsilon).
	c := Capacity{Shares: []float64{1, 0}}
	j := mkJob(1, 0, 0, 4, 0) // lands in queue 1
	if got := c.ChooseNextMapTask([]*JobInfo{j}); got != 0 {
		t.Fatalf("zero-share queue starved: pick = %d", got)
	}
}

func TestEstimatorStringUnknownValue(t *testing.T) {
	if Estimator(99).String() != "avg" {
		t.Fatal("unknown estimator should default to avg")
	}
}

func TestByDeadlineTieFallsBackToArrival(t *testing.T) {
	q := []*JobInfo{
		mkJob(0, 7, 100, 1, 0),
		mkJob(1, 3, 100, 1, 0), // same deadline, earlier arrival
	}
	if got := (MaxEDF{}).ChooseNextMapTask(q); got != 1 {
		t.Fatalf("deadline tie pick = %d, want 1", got)
	}
}

func TestMinEDFEstimatorNames(t *testing.T) {
	if (MinEDF{}).Name() != "MinEDF" {
		t.Fatal((MinEDF{}).Name())
	}
	if (MinEDF{Estimate: EstimatorLow}).Name() != "MinEDF-low" {
		t.Fatal((MinEDF{Estimate: EstimatorLow}).Name())
	}
	if (MinEDF{Estimate: EstimatorUp}).Name() != "MinEDF-up" {
		t.Fatal((MinEDF{Estimate: EstimatorUp}).Name())
	}
}

func TestMinEDFEstimatorOrdering(t *testing.T) {
	// Conservative (up) sizing must grant at least as many slots as the
	// midpoint, which grants at least as many as optimistic (low).
	tpl := &trace.Template{
		AppName: "e", NumMaps: 100, NumReduces: 20,
		MapDurations:    fill(100, 10),
		FirstShuffle:    fill(20, 4),
		TypicalShuffle:  fill(20, 6),
		ReduceDurations: fill(20, 3),
	}
	mk := func(e Estimator) int {
		j := mkJob(0, 0, 500, 100, 20)
		j.Profile = tpl.ProfileRef()
		MinEDF{Estimate: e}.OnJobArrival(j, 64, 64)
		return j.WantedMaps + j.WantedReduces
	}
	low, avg, up := mk(EstimatorLow), mk(EstimatorAvg), mk(EstimatorUp)
	if !(low <= avg && avg <= up) {
		t.Fatalf("slot ordering violated: low=%d avg=%d up=%d", low, avg, up)
	}
	if low < 1 {
		t.Fatalf("low estimator granted nothing: %d", low)
	}
}
