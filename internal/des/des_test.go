package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// mustPop pops the earliest record of q, failing the test if none is
// queued.
func mustPop(t *testing.T, q *Lanes) Record {
	t.Helper()
	var ev Record
	if !q.Pop(&ev) {
		t.Fatalf("Pop found nothing with Len() = %d", q.Len())
	}
	return ev
}

func TestQueueOrdersByTime(t *testing.T) {
	var q Lanes
	q.Push(3.0, 0, 0, 0)
	q.Push(1.0, 0, 1, 0)
	q.Push(2.0, 0, 2, 0)

	want := []int{1, 2, 0}
	for i, jobID := range want {
		if e := mustPop(t, &q); e.JobID != jobID {
			t.Fatalf("pop %d: got job %d, want %d", i, e.JobID, jobID)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}

func TestQueueFIFOAtEqualTimes(t *testing.T) {
	var q Lanes
	for i := 0; i < 100; i++ {
		q.Push(5.0, 0, i, 0)
	}
	// Half of them are popped at t=5, so the rest of the pushes at 5 take
	// the same-instant lane: FIFO must hold across both lanes.
	for i := 0; i < 50; i++ {
		if e := mustPop(t, &q); e.JobID != i {
			t.Fatalf("equal-time events reordered: got %d at position %d", e.JobID, i)
		}
	}
	for i := 100; i < 150; i++ {
		q.Push(5.0, 0, i, 0)
	}
	for i := 50; i < 150; i++ {
		if e := mustPop(t, &q); e.JobID != i {
			t.Fatalf("equal-time events reordered: got %d at position %d", e.JobID, i)
		}
	}
}

// TestQueuePopEmptyPanics covers the deprecated EventQueue shim, whose
// Pop has no way to report an empty queue but to panic; Lanes.Pop
// reports it by returning false.
func TestQueuePopEmptyPanics(t *testing.T) {
	var l Lanes
	var ev Record
	if l.Pop(&ev) {
		t.Fatalf("Lanes.Pop on an empty queue returned %+v", ev)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty queue did not panic")
		}
	}()
	var q EventQueue
	q.Pop()
}

// TestUpdateReordersHeap: an event reserved first but placed later than
// a queued record fires after it, at the time it was placed at.
func TestUpdateReordersHeap(t *testing.T) {
	var q Lanes
	a := q.Reserve()
	q.Push(20.0, 0, 1, 0)
	q.Place(a, 30.0, 0, 0, 0)
	if e := mustPop(t, &q); e.JobID != 1 {
		t.Fatalf("after Place, first pop = job %d, want 1", e.JobID)
	}
	if e := mustPop(t, &q); e.JobID != 0 || e.Time != 30.0 {
		t.Fatalf("placed event wrong: %+v", e)
	}
}

func TestUpdateFillerPattern(t *testing.T) {
	// The engine reserves a filler's place before its time is known and
	// places it later; it must then fire in correct order.
	var q Lanes
	filler := q.Reserve()
	q.Push(100.0, 0, 1, 0)
	var ev Record
	if !q.Pop(&ev) || ev.JobID != 1 {
		t.Fatalf("the queued record must pop ahead of an unplaced reservation, got %+v", ev)
	}
	q.Push(200.0, 0, 2, 0)
	q.Place(filler, 150.0, 1, 42, 0)
	if e := mustPop(t, &q); e.JobID != 42 || e.Type != 1 {
		t.Fatalf("placed filler should fire first, got %+v", e)
	}
	// At the same time as a later push, the filler's older seq wins.
	g := q.Reserve()
	q.Push(300.0, 0, 3, 0)
	q.Place(g, 300.0, 1, 43, 0)
	if e := mustPop(t, &q); e.JobID != 2 {
		t.Fatalf("got job %d, want 2", e.JobID)
	}
	if e := mustPop(t, &q); e.JobID != 43 {
		t.Fatalf("a filler placed at a tied time should fire before the later push, got job %d", e.JobID)
	}
}

func TestRemove(t *testing.T) {
	var q Lanes
	a := q.Push(1.0, 0, 0, 0)
	q.Push(2.0, 0, 1, 0)
	if !q.Remove(a) {
		t.Fatal("Remove did not find a pending record")
	}
	if q.Remove(a) {
		t.Fatal("a removed record is still pending")
	}
	if e := mustPop(t, &q); e.JobID != 1 {
		t.Fatalf("got job %d after removal, want 1", e.JobID)
	}
	if q.Len() != 0 {
		t.Fatal("queue should be empty")
	}
	// A popped record is no longer pending either: the emulator's
	// speculation kill relies on Remove reporting that.
	b := q.Push(3.0, 0, 2, 0)
	mustPop(t, &q)
	if q.Remove(b) {
		t.Fatal("Remove found a record that already fired")
	}
}

// TestUpdateUnscheduledPanics: once a placed event has fired, placing it
// again — no reservation being outstanding — is a programming error.
func TestUpdateUnscheduledPanics(t *testing.T) {
	var q Lanes
	a := q.Reserve()
	q.Place(a, 1.0, 0, 0, 0)
	mustPop(t, &q)
	defer func() {
		if recover() == nil {
			t.Fatal("Place of a fired event did not panic")
		}
	}()
	q.Place(a, 5, 0, 0, 0)
}

func TestFiredCounter(t *testing.T) {
	var q Lanes
	for i := 0; i < 10; i++ {
		q.Push(float64(i), 0, i, 0)
	}
	for i := 0; i < 4; i++ {
		mustPop(t, &q)
	}
	q.Count(3)
	if q.Fired() != 7 {
		t.Fatalf("Fired = %d, want 4 popped + 3 counted", q.Fired())
	}
}

// Property: popping all events yields a nondecreasing time sequence, for
// any pushed multiset of times.
func TestQueueSortedDrainProperty(t *testing.T) {
	prop := func(times []float64) bool {
		var q Lanes
		for i, tm := range times {
			// Quick can generate NaN-ish values via float64; clamp to finite.
			if tm != tm {
				tm = 0
			}
			q.Push(tm, 0, i, 0)
		}
		prev := -Infinity
		var e Record
		for q.Pop(&e) {
			if e.Time < prev {
				return false
			}
			prev = e.Time
		}
		return q.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the drained sequence equals the sorted input (stability aside).
func TestQueueMatchesSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		times := make([]float64, n)
		var q Lanes
		for i := range times {
			times[i] = float64(rng.Intn(50)) // duplicates likely
			q.Push(times[i], 0, i, 0)
		}
		sort.Float64s(times)
		for i := 0; i < n; i++ {
			if e := mustPop(t, &q); e.Time != times[i] {
				t.Fatalf("trial %d: position %d: got %.1f want %.1f", trial, i, e.Time, times[i])
			}
		}
	}
}

// Property: random interleaving of pushes, pops, reservations, placements
// and removes never lets time go backward.
func TestQueueRandomOpsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var q Lanes
	var live, open []uint64
	prev := 0.0
	var e Record
	for op := 0; op < 5000; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // push at or after current frontier
			live = append(live, q.Push(prev+rng.Float64()*100, 0, op, 0))
		case r < 7: // pop
			if q.Pop(&e) {
				if e.Time < prev {
					t.Fatalf("op %d: time went backward %.3f -> %.3f", op, prev, e.Time)
				}
				prev = e.Time
			}
		case r < 8: // reserve a seq for an event with no time yet
			open = append(open, q.Reserve())
		case r < 9 && len(open) > 0: // place a random reservation
			i := rng.Intn(len(open))
			q.Place(open[i], prev+rng.Float64()*100, 0, op, 0)
			live = append(live, open[i])
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
		case len(live) > 0: // remove a random record, pending or not
			q.Remove(live[rng.Intn(len(live))])
		}
	}
}

// TestResetEmptiesQueue covers the counter half of the reuse contract:
// a reset queue must be observationally identical to a zero one.
func TestResetEmptiesQueue(t *testing.T) {
	var q Lanes
	q.Preload(0, sparseSchedule(5))
	for i := 0; i < 10; i++ {
		q.Push(float64(i), 0, i, 0)
	}
	q.Reserve()
	for i := 0; i < 4; i++ {
		mustPop(t, &q)
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	if q.Fired() != 0 {
		t.Fatalf("Fired after Reset = %d", q.Fired())
	}
	if q.HighWater() != 0 {
		t.Fatalf("HighWater after Reset = %d", q.HighWater())
	}
	if q.Preloaded() != 0 || q.ScheduleNext() {
		t.Fatalf("schedule after Reset: %d pending, next %v", q.Preloaded(), q.ScheduleNext())
	}
	var ev Record
	if q.Pop(&ev) {
		t.Fatalf("Pop after Reset returned %+v", ev)
	}
}

// TestResetRestartsSequence locks in nextSeq rewinding: FIFO order among
// equal-time events must be insertion order of the *new* run, which can
// only hold if the tie-break sequence restarts at zero. (A leaked seq
// would not break ordering, but it would break the "reused queue is
// indistinguishable from new" contract this test pins down.)
func TestResetRestartsSequence(t *testing.T) {
	var q Lanes
	for i := 0; i < 50; i++ {
		q.Push(1.0, 0, i, 0)
	}
	q.Reset()
	if seq := q.Push(2.0, 0, 100, 0); seq != 0 {
		t.Fatalf("first push of the new run got seq %d, want 0", seq)
	}
	for i := 1; i < 50; i++ {
		q.Push(2.0, 0, 100+i, 0)
	}
	first := mustPop(t, &q)
	if first.seq != 0 {
		t.Fatalf("first event of the new run has seq %d, want 0", first.seq)
	}
	if first.JobID != 100 {
		t.Fatalf("FIFO order broken after Reset: got job %d first", first.JobID)
	}
}

// TestResetRecyclesPendingEvents covers the storage half of the
// contract: the lanes keep the records pending at Reset as capacity, so
// the next run refills them instead of growing new ones.
func TestResetRecyclesPendingEvents(t *testing.T) {
	var q Lanes
	var ev Record
	fill := func() {
		for i := 0; i < 20; i++ {
			q.Push(float64(i+1), 0, i, 0) // heap lane
		}
		q.Pop(&ev)
		for i := 0; i < 20; i++ {
			q.Push(ev.Time, 0, i, 0) // same-instant lane
		}
	}
	fill()
	q.Reset()
	if allocs := testing.AllocsPerRun(10, func() { fill(); q.Reset() }); allocs > 0 {
		t.Fatalf("refilling a reset queue allocated %.0f times, want 0", allocs)
	}
}

// TestResetDropsPayloadReferences: Reset must not keep caller-owned
// memory reachable into the next run. The one such reference a queue
// holds is its preloaded schedule.
func TestResetDropsPayloadReferences(t *testing.T) {
	var q Lanes
	q.Preload(0, sparseSchedule(10))
	q.Push(1.0, 0, 0, 0)
	q.Reset()
	if q.sched != nil {
		t.Fatalf("Reset left the queue holding a schedule of %d entries", len(q.sched))
	}
	q.Preload(1, sparseSchedule(3))
	if q.Preloaded() != 3 {
		t.Fatalf("Preload after Reset: %d pending, want 3", q.Preloaded())
	}
}

// TestResetZeroQueue: Reset on a zero-value or drained queue is a no-op.
func TestResetZeroQueue(t *testing.T) {
	var q Lanes
	q.Reset()
	q.Push(1.0, 0, 0, 0)
	mustPop(t, &q)
	q.Reset()
	q.Reset()
	if q.Len() != 0 || q.Fired() != 0 || q.HighWater() != 0 {
		t.Fatal("repeated Reset corrupted the queue")
	}
}

// TestReuseAcrossManyRuns drives several full drain cycles through one
// queue and checks steady-state behavior: every run pops the same
// sequence, and after the first the lanes hold the whole population
// without growing.
func TestReuseAcrossManyRuns(t *testing.T) {
	var q Lanes
	const n = 100
	var first []Record
	heapCap := 0
	for run := 0; run < 5; run++ {
		for i := 0; i < n; i++ {
			q.Push(float64((i*7)%n), 0, i, i)
		}
		var got []Record
		prev := -1.0
		var e Record
		for q.Pop(&e) {
			if e.Time < prev {
				t.Fatalf("run %d: order violated: %v after %v", run, e.Time, prev)
			}
			prev = e.Time
			got = append(got, e)
		}
		if q.Fired() != n {
			t.Fatalf("run %d: fired %d, want %d", run, q.Fired(), n)
		}
		if run == 0 {
			first, heapCap = got, cap(q.h)
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("run %d: pop %d = %+v, first run popped %+v", run, i, got[i], first[i])
				}
			}
			if cap(q.h) != heapCap {
				t.Fatalf("run %d: heap lane regrew from %d to %d slots", run, heapCap, cap(q.h))
			}
		}
		q.Reset()
	}
}

// TestFreeRecyclesEvents covers the deprecated EventQueue shim: Pop
// hands out the shim's one record, Free is a no-op, and the record a
// later Pop returns holds that event's fields and nothing stale.
func TestFreeRecyclesEvents(t *testing.T) {
	var q EventQueue
	q.PushTask(1, 0, 0, 0)
	e1 := q.Pop()
	if e1.Time != 1 {
		t.Fatalf("pop = %+v", e1)
	}
	q.Free(e1)
	q.PushTask(2, 1, 2, 3)
	e2 := q.Pop()
	if e2 != e1 {
		t.Fatal("Pop did not reuse the shim's record")
	}
	if e2.Time != 2 || e2.Type != 1 || e2.JobID != 2 || e2.Task != 3 {
		t.Fatalf("recycled record retained stale state: %+v", e2)
	}
}

func TestSteadyStateAllocs(t *testing.T) {
	const population = 256
	var q Lanes
	var ev Record
	churn := func() {
		for i := 0; i < population; i++ {
			q.Push(float64(i), 0, i, i)
		}
		for q.Pop(&ev) {
			q.Push(ev.Time, 0, 0, 0) // same-instant hand-off
			q.Pop(&ev)
		}
	}
	churn() // warm the lanes
	if allocs := testing.AllocsPerRun(100, churn); allocs > 0 {
		t.Fatalf("steady-state churn allocates: %.1f allocs/run", allocs)
	}
}

// TestRemovedEventCanBeFreed covers the preemption path: a record
// cancelled with Remove gives its heap slot back, so the push that
// follows reuses it instead of growing the lane.
func TestRemovedEventCanBeFreed(t *testing.T) {
	var q Lanes
	e := q.Push(5, 0, 0, 0)
	q.Push(1, 0, 1, 0)
	c := cap(q.h)
	if !q.Remove(e) {
		t.Fatal("Remove found nothing")
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
	for i := 0; i < c-1; i++ {
		q.Push(3, 0, 2, 9)
	}
	if cap(q.h) != c {
		t.Fatalf("heap lane grew from %d to %d slots after a removal freed one", c, cap(q.h))
	}
}

// TestOrderingUnaffectedByRecycling replays interleaved push/pop traffic
// that slides the same-instant lane over its consumed prefix and rewinds
// it, and checks (time, FIFO) ordering still holds.
func TestOrderingUnaffectedByRecycling(t *testing.T) {
	var q Lanes
	times := []Time{3, 1, 2, 1, 5, 0, 2}
	for i, tm := range times {
		q.Push(tm, 0, i, i)
	}
	var prev *Record
	var e Record
	next := 100
	for q.Pop(&e) {
		if prev != nil && (e.Time < prev.Time || (e.Time == prev.Time && e.seq < prev.seq)) {
			t.Fatalf("order violated: %+v after %+v", e, prev)
		}
		cp := e
		prev = &cp
		// Interleave fresh pushes at the current instant and later.
		if next < 160 {
			q.Push(e.Time, 0, next, next)
			q.Push(e.Time+1, 0, next+1, next+1)
			next += 2
		}
	}
	if q.Fired() != uint64(len(times)+next-100) {
		t.Fatalf("fired %d, want %d", q.Fired(), len(times)+next-100)
	}
}

func TestClockMonotonic(t *testing.T) {
	var c Clock
	c.AdvanceTo(1.5)
	c.AdvanceTo(1.5) // equal is fine
	c.AdvanceTo(2.0)
	if c.Now() != 2.0 {
		t.Fatalf("Now = %f, want 2.0", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("backward clock move did not panic")
		}
	}()
	c.AdvanceTo(1.0)
}

func TestClockReset(t *testing.T) {
	var c Clock
	c.AdvanceTo(10)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("after Reset Now = %f", c.Now())
	}
}
