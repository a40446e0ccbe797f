package des

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap are a reference priority queue built on
// container/heap with the exact ordering contract Lanes must preserve:
// ascending (Time, seq). The differential tests drive Lanes and the
// reference with identical operation schedules and require identical pop
// sequences — the property that keeps replays byte-identical across
// queue implementations.
type refEvent struct {
	time  Time
	seq   uint64
	id    int
	index int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// refQueue pairs the reference heap with the same seq discipline and
// counters as the queue under test. bySeq finds the reference partner
// of any pending event by the seq both sides gave it.
type refQueue struct {
	h       refHeap
	nextSeq uint64
	fired   uint64
	hiWater int
	bySeq   map[uint64]*refEvent
}

func (q *refQueue) push(t Time, id int) *refEvent {
	e := &refEvent{time: t, seq: q.nextSeq, id: id}
	q.nextSeq++
	heap.Push(&q.h, e)
	if len(q.h) > q.hiWater {
		q.hiWater = len(q.h)
	}
	if q.bySeq == nil {
		q.bySeq = make(map[uint64]*refEvent)
	}
	q.bySeq[e.seq] = e
	return e
}

func (q *refQueue) pop() *refEvent {
	q.fired++
	e := heap.Pop(&q.h).(*refEvent)
	delete(q.bySeq, e.seq)
	return e
}

func (q *refQueue) update(e *refEvent, t Time) {
	e.time = t
	heap.Fix(&q.h, e.index)
}

func (q *refQueue) remove(e *refEvent) {
	heap.Remove(&q.h, e.index)
	delete(q.bySeq, e.seq)
}

// diffRun is one differential run of Lanes against the reference. The
// reference models a reservation the way the engine's queue used to hold
// a filler: pushed at Infinity under its seq, updated when it is placed.
type diffRun struct {
	t      *testing.T
	rng    *rand.Rand
	q      *Lanes
	ref    refQueue
	sched  uint64   // seqs below this are preloaded entries
	pushed []uint64 // seqs Push or Place queued, possibly popped since
	open   []uint64 // reservations not yet placed
	id     int
	now    Time // time of the last pop
}

// preload installs a sorted schedule with exact ties in the queue and
// pushes the same entries, in order, into the reference — the
// equivalence Preload promises.
func (d *diffRun) preload(n int) {
	s := make([]Arrival, n)
	tm := Time(0)
	for i := range s {
		tm += Time(d.rng.Intn(3)) // zero steps: tied arrivals
		s[i] = Arrival{Time: tm, JobID: d.id}
		d.ref.push(tm, d.id)
		d.id++
	}
	d.q.Preload(0, s)
	d.sched = uint64(n)
}

func (d *diffRun) push(tm Time) {
	seq := d.q.Push(tm, 0, d.id, d.id%7)
	if r := d.ref.push(tm, d.id); r.seq != seq {
		d.t.Fatalf("Push returned seq %d, reference minted %d", seq, r.seq)
	}
	d.pushed = append(d.pushed, seq)
	d.id++
}

func (d *diffRun) reserve() {
	seq := d.q.Reserve()
	if r := d.ref.push(Infinity, d.id); r.seq != seq {
		d.t.Fatalf("Reserve returned seq %d, reference minted %d", seq, r.seq)
	}
	d.open = append(d.open, seq)
	d.id++
}

// place files the i-th open reservation at tm on both sides.
func (d *diffRun) place(i int, tm Time) {
	seq := d.open[i]
	d.open[i] = d.open[len(d.open)-1]
	d.open = d.open[:len(d.open)-1]
	r := d.ref.bySeq[seq]
	d.ref.update(r, tm)
	d.q.Place(seq, tm, 0, r.id, r.id%7)
	d.pushed = append(d.pushed, seq)
}

// remove cancels by seq: three times in four a seq this run queued
// (pending in the heap or the same-instant lane, or popped since), else
// any seq minted so far — a schedule entry, an open reservation. Remove
// must find exactly the records Push or Place queued and nothing popped.
func (d *diffRun) remove() {
	var seq uint64
	switch {
	case len(d.pushed) > 0 && d.rng.Intn(4) > 0:
		seq = d.pushed[d.rng.Intn(len(d.pushed))]
	case d.ref.nextSeq > 0:
		seq = uint64(d.rng.Int63n(int64(d.ref.nextSeq)))
	default:
		return
	}
	r, want := d.ref.bySeq[seq]
	want = want && seq >= d.sched && r.time != Infinity
	if got := d.q.Remove(seq); got != want {
		d.t.Fatalf("Remove(%d) = %v, want %v", seq, got, want)
	}
	if want {
		d.ref.remove(r)
	}
}

// pop takes the next record — through Pop, or through PopAt(now), which
// must decline exactly when the head is due later — and compares it with
// the reference's. When only reservations are left Pop must say so; they
// are then placed, as the engine places stalled fillers. Before it,
// ScheduleNext must say whether the head is a schedule entry.
func (d *diffRun) pop(where string) {
	var e Record
	head := d.ref.h[0]
	if head.time == Infinity {
		if d.q.Pop(&e) || d.q.PopAt(d.now, &e) {
			d.t.Fatalf("%s: popped %+v with only reservations pending", where, e)
		}
		for len(d.open) > 0 {
			d.place(0, d.now+Time(d.rng.Intn(4)))
		}
		head = d.ref.h[0]
	}
	if got, want := d.q.ScheduleNext(), head.seq < d.sched; got != want {
		d.t.Fatalf("%s: ScheduleNext() = %v with the head at seq %d (schedule below %d)", where, got, head.seq, d.sched)
	}
	if d.rng.Intn(2) == 0 {
		if got, want := d.q.PopAt(d.now, &e), head.time == d.now; got != want {
			d.t.Fatalf("%s: PopAt(%v) = %v with the head due at %v", where, d.now, got, head.time)
		} else if !got && !d.q.Pop(&e) {
			d.t.Fatalf("%s: Pop found nothing, reference holds %d", where, len(d.ref.h))
		}
	} else if !d.q.Pop(&e) {
		d.t.Fatalf("%s: Pop found nothing, reference holds %d", where, len(d.ref.h))
	}
	r := d.ref.pop()
	if e.Time != r.time || e.JobID != r.id || e.seq != r.seq || e.Type != 0 || (r.seq >= d.sched && int(e.Task) != r.id%7) {
		d.t.Fatalf("%s: pop diverged: queue %+v vs reference (t=%v id=%d seq=%d)", where, e, r.time, r.id, r.seq)
	}
	d.now = e.Time
}

// runDifferentialSchedule drives Lanes and the reference with an
// operation schedule derived from the byte stream and fails on the first
// divergence — in the pop sequence, in what Remove finds, or in Len,
// Fired or HighWater after any step. The first byte sizes a preloaded
// schedule; each further byte selects an operation; times are drawn from
// the rng seeded by the schedule length to keep the schedule itself
// compact.
func runDifferentialSchedule(t *testing.T, ops []byte) {
	t.Helper()
	d := &diffRun{t: t, rng: rand.New(rand.NewSource(int64(len(ops)) + 1)), q: &Lanes{}}
	other := &Lanes{}
	if len(ops) > 0 {
		d.preload(int(ops[0]) % 48)
		ops = ops[1:]
	}

	for opIdx, op := range ops {
		switch op % 8 {
		case 0: // push anywhere; small domain: many exact ties
			d.push(Time(d.rng.Intn(64)))
		case 1: // pop
			if d.q.Len() > 0 {
				d.pop("op")
			}
		case 2: // reserve a seq for an event with no time yet
			d.reserve()
		case 3: // remove by seq, from the heap or the same-instant lane
			d.remove()
		case 4: // push at exactly the last-popped time
			d.push(d.now)
		case 5: // push into the past
			d.push(d.now - 1 - Time(d.rng.Intn(4)))
		case 6: // place a reservation: at the current instant, or later
			if len(d.open) > 0 {
				d.place(d.rng.Intn(len(d.open)), d.now+Time(d.rng.Intn(3)*d.rng.Intn(20)))
			}
		case 7: // mid-drain clone, or (one time in eight) reset and re-arm
			if d.rng.Intn(8) > 0 {
				// Seqs carry over: carry on with the clone.
				d.q.CloneInto(other)
				d.q, other = other, d.q
				break
			}
			d.q.Reset()
			d.ref, d.pushed, d.open, d.now = refQueue{}, d.pushed[:0], d.open[:0], 0
			d.preload(d.rng.Intn(48))
		}
		if d.q.Len() != len(d.ref.h) || d.q.Fired() != d.ref.fired || d.q.HighWater() != d.ref.hiWater {
			t.Fatalf("op %d: len/fired/high-water diverged: %d/%d/%d vs reference %d/%d/%d", opIdx,
				d.q.Len(), d.q.Fired(), d.q.HighWater(), len(d.ref.h), d.ref.fired, d.ref.hiWater)
		}
	}
	// Drain both completely: the full remaining pop sequence must match.
	for d.q.Len() > 0 {
		d.pop("drain")
	}
	if len(d.ref.h) != 0 {
		t.Fatalf("reference still holds %d events after drain", len(d.ref.h))
	}
}

// TestQueueDifferentialRandomSchedules is the fuzz-style property test:
// many random schedules, each checked against the reference heap.
func TestQueueDifferentialRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(2000)
		ops := make([]byte, n)
		rng.Read(ops)
		runDifferentialSchedule(t, ops)
	}
}

// TestQueueDifferentialPushHeavy biases toward pushes so the heap
// reaches realistic engine high-water populations (hundreds of pending
// events) before draining.
func TestQueueDifferentialPushHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		ops := make([]byte, 3000)
		for i := range ops {
			// Weight pushes (anywhere, same-instant, past) and
			// reservations 2:1 over pops, removes and placements.
			if rng.Intn(3) < 2 {
				ops[i] = []byte{0, 0, 4, 5, 2}[rng.Intn(5)]
			} else {
				ops[i] = []byte{1, 3, 6}[rng.Intn(3)]
			}
		}
		runDifferentialSchedule(t, ops)
	}
}

// TestQueueDifferentialDeepHeap takes the sift and the remove-by-seq
// scan past the depth any replay reaches (one departure per busy slot):
// 16 384 pending departures, 1 000 of them cancelled by seq, then the
// drain — against the reference, record for record.
func TestQueueDifferentialDeepHeap(t *testing.T) {
	const pending, removed = 16384, 1000
	d := &diffRun{t: t, rng: rand.New(rand.NewSource(44)), q: &Lanes{}}
	for i := 0; i < pending; i++ {
		d.push(1 + Time(d.rng.Intn(pending/4))) // ties four deep on average
	}
	if len(d.q.h) != pending {
		t.Fatalf("heap lane holds %d of %d timed pushes", len(d.q.h), pending)
	}
	for _, i := range d.rng.Perm(pending)[:removed] {
		seq := d.pushed[i]
		if !d.q.Remove(seq) {
			t.Fatalf("Remove(%d) did not find a pending departure", seq)
		}
		if d.q.Remove(seq) {
			t.Fatalf("Remove(%d) found the departure twice", seq)
		}
		d.ref.remove(d.ref.bySeq[seq])
	}
	if d.q.Len() != pending-removed || d.q.HighWater() != pending {
		t.Fatalf("len/high-water = %d/%d, want %d/%d", d.q.Len(), d.q.HighWater(), pending-removed, pending)
	}
	for d.q.Len() > 0 {
		d.pop("drain")
	}
}

// TestEventQueueDifferential is the same check for the deprecated
// EventQueue shim, through the only methods it has: random pushes and
// pops (each popped record freed), against the reference.
func TestEventQueueDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 100; trial++ {
		var q EventQueue
		var ref refQueue
		for op, n := 0, 1+rng.Intn(2000); op < n || len(ref.h) > 0; op++ {
			if op >= n || (rng.Intn(8) < 3 && len(ref.h) > 0) { // pop; past n, drain
				e, want := q.Pop(), ref.pop()
				if e.Time != want.time || e.JobID != want.id || e.seq != want.seq || int(e.Task) != want.id%7 {
					t.Fatalf("trial %d op %d: popped %+v, reference (t=%v id=%d seq=%d)", trial, op, *e, want.time, want.id, want.seq)
				}
				q.Free(e)
				continue
			}
			tm := Time(rng.Intn(64))
			q.PushTask(tm, 0, op, op%7)
			ref.push(tm, op)
		}
	}
}

// FuzzLanesDifferential hands the schedule to the fuzzer: `go test
// -fuzz=FuzzLanesDifferential ./internal/des` explores op sequences
// against the queue; the seed corpus runs on every plain `go test`.
func FuzzLanesDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{0, 0, 2, 1, 0, 3, 1})
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 0, 0, 0, 1, 1, 1, 1})
	// Preloaded schedule; same-instant pushes, reservations placed at the
	// current instant and later, removes and clones.
	f.Add([]byte{20, 1, 4, 4, 6, 1, 4, 3, 7, 1, 5, 6, 6, 2, 1, 1, 7, 4, 1})
	// Reservations outlive everything queued, then get their times.
	f.Add([]byte{3, 2, 2, 0, 2, 1, 1, 1, 1, 1, 1, 4, 2, 1, 6, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<16 {
			t.Skip("schedule too long")
		}
		runDifferentialSchedule(t, ops)
	})
}
