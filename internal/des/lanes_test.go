package des

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestEventRecordSize pins what the engine's queue moves per event: half
// a cache line, and nothing the collector has to look at.
func TestEventRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want 32", got)
	}
	rt := reflect.TypeOf(Record{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Float64, reflect.Uint64, reflect.Int, reflect.Int32, reflect.Uint8:
		default:
			t.Errorf("Record.%s is a %s: the record must stay pointer-free", f.Name, f.Type)
		}
	}
}

// sparseSchedule returns n arrivals one second apart.
func sparseSchedule(n int) []Arrival {
	s := make([]Arrival, n)
	for i := range s {
		s[i] = Arrival{Time: Time(i), JobID: i}
	}
	return s
}

func TestPreloadMisusePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("unsorted schedule", func() {
		var q Lanes
		q.Preload(0, []Arrival{{Time: 2}, {Time: 1}})
	})
	mustPanic("Preload after Push", func() {
		var q Lanes
		q.Push(1, 0, 0, 0)
		q.Preload(0, sparseSchedule(3))
	})
	mustPanic("second Preload", func() {
		var q Lanes
		q.Preload(0, sparseSchedule(3))
		q.Preload(0, sparseSchedule(3))
	})
	mustPanic("Place without a reservation", func() {
		var q Lanes
		q.Preload(0, sparseSchedule(3))
		q.Push(1, 0, 0, 0)
		q.Place(q.Reserve(), 2, 0, 0, 0)
		q.Place(5, 2, 0, 0, 0)
	})
}

// TestCloneSharesSchedule pins what makes a fork's queue clone cost the
// in-flight events and not the trace: the clone reads the source's
// schedule in place, allocates nothing once warmed however many entries
// are pending, and both pop the same records from the one schedule.
func TestCloneSharesSchedule(t *testing.T) {
	const n = 100_000
	var src, dst Lanes
	var ev Record
	src.Preload(7, sparseSchedule(n))
	for i := 0; i < 10; i++ {
		src.Pop(&ev)
		src.Push(Time(i)+0.5, 1, i, i)
		src.Push(Time(i), 2, i, 0) // same-instant lane
	}
	src.CloneInto(&dst)
	if dst.Len() != src.Len() || dst.Preloaded() != src.Preloaded() || dst.HighWater() != src.HighWater() {
		t.Fatalf("clone len/preloaded/high-water = %d/%d/%d, source %d/%d/%d",
			dst.Len(), dst.Preloaded(), dst.HighWater(), src.Len(), src.Preloaded(), src.HighWater())
	}
	if &dst.sched[0] != &src.sched[0] {
		t.Fatal("clone copied the schedule")
	}
	if allocs := testing.AllocsPerRun(10, func() { src.CloneInto(&dst) }); allocs > 0 {
		t.Errorf("warmed CloneInto over %d pending arrivals allocated %.0f/op, want 0", src.Preloaded(), allocs)
	}

	for i := 0; i < 200; i++ {
		var a, b Record
		if !src.Pop(&a) || !dst.Pop(&b) || a != b {
			t.Fatalf("pop %d: source %+v, clone %+v", i, a, b)
		}
	}
}

// TestSameInstantLaneStaysBounded drives the lane so it never drains —
// two pushes at the current instant for every pop — and then, with a
// steady population, checks its storage tracked the population rather
// than the traffic.
func TestSameInstantLaneStaysBounded(t *testing.T) {
	var q Lanes
	var ev Record
	q.Push(1, 0, 0, 0)
	for i := 0; i < 64; i++ {
		q.Pop(&ev)
		q.Push(1, 0, i, 0)
		q.Push(1, 0, i, 0)
	}
	for i := 0; i < 100_000; i++ {
		q.Pop(&ev)
		q.Push(1, 0, i, 0)
	}
	if q.Len() != 65 || len(q.h) != 0 {
		t.Fatalf("len %d (heap %d), want 65 events all in the same-instant lane", q.Len(), len(q.h))
	}
	if cap(q.f) > 4*q.Len() {
		t.Fatalf("same-instant lane holds %d slots for %d events", cap(q.f), q.Len())
	}
}

// TestRemoveFromSameInstantLane cancels records that sit in the
// same-instant lane — its head, its middle, its tail — and checks what is
// left pops in seq order, the counters follow, and a drained lane rewinds.
// Remove promises to find any record Push queued, but the engine's
// preemption kill no longer lands in this lane (DESIGN.md §9: a job
// arrival is never handled between a task's start and a departure due the
// same instant), so the scan is covered here — by hand, and at random by
// the differential fuzz.
func TestRemoveFromSameInstantLane(t *testing.T) {
	var q Lanes
	var ev Record
	q.Push(5, 0, -1, 0)
	q.Pop(&ev) // the instant is 5: pushes at 5 take the lane
	seqs := make([]uint64, 6)
	for i := range seqs {
		seqs[i] = q.Push(5, 0, i, i)
	}
	later := q.Push(9, 0, 99, 0)
	if len(q.f)-q.fh != 6 || len(q.h) != 1 {
		t.Fatalf("lane holds %d, heap %d; want 6 and 1", len(q.f)-q.fh, len(q.h))
	}
	for _, i := range []int{0, 3, 5} { // head, middle, tail
		if !q.Remove(seqs[i]) {
			t.Fatalf("Remove(seq of record %d) found nothing", i)
		}
		if q.Remove(seqs[i]) {
			t.Fatalf("Remove(seq of record %d) found it twice", i)
		}
	}
	if q.Len() != 4 || q.HighWater() != 7 {
		t.Fatalf("len %d, high water %d; want 4 and 7", q.Len(), q.HighWater())
	}
	for _, want := range []int{1, 2, 4} {
		if !q.PopAt(5, &ev) || ev.JobID != want || int(ev.Task) != want || ev.Time != 5 {
			t.Fatalf("popped %+v, want record %d at t=5", ev, want)
		}
	}
	if q.PopAt(5, &ev) {
		t.Fatalf("popped %+v at t=5 after the lane drained", ev)
	}
	if len(q.f) != 0 || q.fh != 0 {
		t.Fatalf("drained lane not rewound: len %d, head %d", len(q.f), q.fh)
	}
	// Removing the only record of the lane drains it too.
	only := q.Push(5, 0, 7, 0)
	if !q.Remove(only) || len(q.f) != 0 || q.fh != 0 {
		t.Fatalf("lane after removing its only record: len %d, head %d", len(q.f), q.fh)
	}
	if !q.Remove(later) || q.Len() != 0 || q.Fired() != 4 {
		t.Fatalf("after removing the heap record: len %d, fired %d; want 0 and 4", q.Len(), q.Fired())
	}
}
