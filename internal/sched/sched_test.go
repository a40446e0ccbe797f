package sched

import (
	"testing"

	"simmr/internal/trace"
)

func mkJob(id int, arrival, deadline float64, maps, reduces int) *JobInfo {
	return &JobInfo{
		ID: id, Arrival: arrival, Deadline: deadline,
		NumMaps: maps, NumReduces: reduces, ReduceReady: true,
	}
}

func TestJobInfoCounters(t *testing.T) {
	j := mkJob(0, 0, 0, 10, 4)
	j.ScheduledMaps = 6
	j.CompletedMaps = 2
	if j.PendingMaps() != 4 || j.RunningMaps() != 4 {
		t.Fatalf("pending=%d running=%d", j.PendingMaps(), j.RunningMaps())
	}
	if j.MapsDone() || j.Done() {
		t.Fatal("job should not be done")
	}
	j.CompletedMaps = 10
	j.ScheduledMaps = 10
	j.ScheduledReduces = 4
	j.CompletedReduces = 4
	if !j.MapsDone() || !j.Done() {
		t.Fatal("job should be done")
	}
}

func TestFIFOPicksEarliestArrival(t *testing.T) {
	q := []*JobInfo{mkJob(0, 5, 0, 4, 1), mkJob(1, 2, 0, 4, 1), mkJob(2, 9, 0, 4, 1)}
	if got := (FIFO{}).ChooseNextMapTask(q); got != 1 {
		t.Fatalf("FIFO map pick = %d, want 1", got)
	}
	if got := (FIFO{}).ChooseNextReduceTask(q); got != 1 {
		t.Fatalf("FIFO reduce pick = %d, want 1", got)
	}
}

func TestFIFOSkipsSatisfiedJobs(t *testing.T) {
	a := mkJob(0, 1, 0, 2, 1)
	a.ScheduledMaps = 2 // no pending maps
	b := mkJob(1, 5, 0, 2, 1)
	q := []*JobInfo{a, b}
	if got := (FIFO{}).ChooseNextMapTask(q); got != 1 {
		t.Fatalf("pick = %d, want 1 (job 0 has no pending maps)", got)
	}
}

func TestFIFOTieBreaksById(t *testing.T) {
	q := []*JobInfo{mkJob(7, 3, 0, 1, 0), mkJob(2, 3, 0, 1, 0)}
	if got := (FIFO{}).ChooseNextMapTask(q); got != 1 {
		t.Fatalf("tie break pick = %d, want index 1 (lower ID)", got)
	}
}

func TestChooseReturnsMinusOneWhenNothingEligible(t *testing.T) {
	a := mkJob(0, 0, 0, 1, 1)
	a.ScheduledMaps = 1
	a.ReduceReady = false
	q := []*JobInfo{a, nil}
	if got := (FIFO{}).ChooseNextMapTask(q); got != -1 {
		t.Fatalf("map pick = %d, want -1", got)
	}
	if got := (FIFO{}).ChooseNextReduceTask(q); got != -1 {
		t.Fatalf("reduce pick = %d, want -1 (not ReduceReady)", got)
	}
}

func TestReduceNotReadyGate(t *testing.T) {
	j := mkJob(0, 0, 0, 4, 4)
	j.ReduceReady = false
	if got := (FIFO{}).ChooseNextReduceTask([]*JobInfo{j}); got != -1 {
		t.Fatal("reduce scheduled before ReduceReady")
	}
	j.ReduceReady = true
	if got := (FIFO{}).ChooseNextReduceTask([]*JobInfo{j}); got != 0 {
		t.Fatal("reduce not scheduled after ReduceReady")
	}
}

func TestMaxEDFPicksEarliestDeadline(t *testing.T) {
	q := []*JobInfo{
		mkJob(0, 0, 500, 4, 1),
		mkJob(1, 1, 100, 4, 1),
		mkJob(2, 2, 300, 4, 1),
	}
	if got := (MaxEDF{}).ChooseNextMapTask(q); got != 1 {
		t.Fatalf("MaxEDF pick = %d, want 1", got)
	}
}

func TestEDFJobsWithoutDeadlinesSortLast(t *testing.T) {
	q := []*JobInfo{mkJob(0, 0, 0, 4, 1), mkJob(1, 5, 900, 4, 1)}
	if got := (MaxEDF{}).ChooseNextMapTask(q); got != 1 {
		t.Fatalf("pick = %d: job with deadline must beat job without", got)
	}
}

func TestMinEDFCapsConcurrentTasks(t *testing.T) {
	j := mkJob(0, 0, 1000, 100, 10)
	j.WantedMaps = 3
	j.ScheduledMaps = 3 // 3 running
	q := []*JobInfo{j}
	if got := (MinEDF{}).ChooseNextMapTask(q); got != -1 {
		t.Fatal("MinEDF exceeded wanted map slots")
	}
	j.CompletedMaps = 1 // 2 running now
	if got := (MinEDF{}).ChooseNextMapTask(q); got != 0 {
		t.Fatal("MinEDF should schedule below its cap")
	}
}

func TestMinEDFOnJobArrivalSizesAllocation(t *testing.T) {
	tpl := &trace.Template{
		AppName: "x", NumMaps: 100, NumReduces: 20,
		MapDurations:    fill(100, 10),
		FirstShuffle:    fill(20, 4),
		TypicalShuffle:  fill(20, 6),
		ReduceDurations: fill(20, 3),
	}
	j := mkJob(0, 0, 0, 100, 20)
	j.Profile = tpl.ProfileRef()

	// Without a deadline: unlimited.
	(MinEDF{}).OnJobArrival(j, 64, 64)
	if j.WantedMaps != 0 || j.WantedReduces != 0 {
		t.Fatalf("no-deadline job should be uncapped: %+v", j)
	}

	// Relaxed deadline: a small allocation.
	j.Deadline = 3000
	(MinEDF{}).OnJobArrival(j, 64, 64)
	if j.WantedMaps <= 0 || j.WantedMaps > 64 {
		t.Fatalf("wanted maps out of range: %d", j.WantedMaps)
	}
	relaxed := j.WantedMaps + j.WantedReduces

	// Tight deadline: needs more slots.
	j.Deadline = 40
	(MinEDF{}).OnJobArrival(j, 64, 64)
	tight := j.WantedMaps + j.WantedReduces
	if tight < relaxed {
		t.Fatalf("tighter deadline got fewer slots: %d < %d", tight, relaxed)
	}
}

func TestFairBalancesRunningTasks(t *testing.T) {
	a := mkJob(0, 0, 0, 100, 10)
	a.ScheduledMaps = 10 // 10 running
	b := mkJob(1, 50, 0, 100, 10)
	b.ScheduledMaps = 2 // 2 running
	q := []*JobInfo{a, b}
	if got := (Fair{}).ChooseNextMapTask(q); got != 1 {
		t.Fatalf("Fair pick = %d, want 1 (fewest running)", got)
	}
	// Equal running: earliest arrival.
	b.ScheduledMaps = 10
	if got := (Fair{}).ChooseNextMapTask(q); got != 0 {
		t.Fatalf("Fair tie pick = %d, want 0", got)
	}
}

func TestFairReduceSide(t *testing.T) {
	a := mkJob(0, 0, 0, 1, 10)
	a.ScheduledReduces = 5
	b := mkJob(1, 1, 0, 1, 10)
	if got := (Fair{}).ChooseNextReduceTask([]*JobInfo{a, b}); got != 1 {
		t.Fatalf("Fair reduce pick = %d, want 1", got)
	}
}

func TestCapacityPrefersUnderservedQueue(t *testing.T) {
	c := Capacity{Shares: []float64{0.5, 0.5}}
	// queue 0 = job IDs 0,2..; queue 1 = 1,3..
	a := mkJob(0, 0, 0, 100, 1)
	a.ScheduledMaps = 20
	b := mkJob(1, 10, 0, 100, 1)
	b.ScheduledMaps = 2
	q := []*JobInfo{a, b}
	if got := c.ChooseNextMapTask(q); got != 1 {
		t.Fatalf("capacity pick = %d, want 1 (queue 1 underserved)", got)
	}
}

func TestCapacitySpilloverWhenQueueEmpty(t *testing.T) {
	c := Capacity{Shares: []float64{0.9, 0.1}}
	// Only a queue-1 job exists; it must still get slots.
	b := mkJob(1, 0, 0, 10, 1)
	if got := c.ChooseNextMapTask([]*JobInfo{b}); got != 0 {
		t.Fatalf("capacity spillover pick = %d, want 0", got)
	}
}

func TestCapacityNoSharesActsLikeFIFO(t *testing.T) {
	c := Capacity{}
	q := []*JobInfo{mkJob(0, 5, 0, 1, 0), mkJob(1, 1, 0, 1, 0)}
	if got := c.ChooseNextMapTask(q); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{FIFO{}, MaxEDF{}, MinEDF{}, Fair{}, Capacity{}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}
