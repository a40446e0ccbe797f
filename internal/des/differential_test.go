package des

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap are a reference priority queue built on
// container/heap with the exact ordering contract the three-lane
// queue must preserve: ascending (Time, seq). The differential
// tests drive both implementations with identical operation schedules
// and require identical pop sequences — the property that keeps
// replays byte-identical across queue implementations.
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
// counters as EventQueue. bySeq finds the reference partner of any
// pending *Event — pushed, or a preloaded entry met through Peek.
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

// diffRun is one differential run: the queue under test, the reference,
// and the handles the schedule may still update or remove.
type diffRun struct {
	t    *testing.T
	rng  *rand.Rand
	q    *EventQueue
	ref  refQueue
	live []*Event // handles returned by Push, possibly popped since
	id   int
	now  Time // time of the last pop
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
}

func (d *diffRun) push(tm Time) {
	d.live = append(d.live, d.q.Push(tm, 0, d.id, nil))
	d.ref.push(tm, d.id)
	d.id++
}

// pick returns a pending event to update or remove: one time in four
// the queue's head, whichever lane holds it (the only way to reach a
// preloaded entry), else a random pushed handle if still scheduled.
func (d *diffRun) pick() *Event {
	if d.rng.Intn(4) == 0 || len(d.live) == 0 {
		return d.q.Peek()
	}
	if e := d.live[d.rng.Intn(len(d.live))]; e.Scheduled() {
		return e
	}
	return nil
}

// drop forgets a handle that left the queue, before the *Event can be
// recycled into a new push.
func (d *diffRun) drop(e *Event) {
	for i := range d.live {
		if d.live[i] == e {
			d.live[i] = d.live[len(d.live)-1]
			d.live = d.live[:len(d.live)-1]
			return
		}
	}
}

func (d *diffRun) pop(where string) {
	e := d.q.Pop()
	r := d.ref.pop()
	if e.Time != r.time || e.JobID != r.id || e.seq != r.seq {
		d.t.Fatalf("%s: pop diverged: queue (t=%v id=%d seq=%d) vs reference (t=%v id=%d seq=%d)",
			where, e.Time, e.JobID, e.seq, r.time, r.id, r.seq)
	}
	d.now = e.Time
	d.drop(e)
	d.q.Free(e)
}

// cloneSwap clones the queue into other mid-drain, checks every pending
// handle remaps through PendingAt(HeapPos()) to a distinct event with
// the same key and position, and carries on with the clone.
func (d *diffRun) cloneSwap(other *EventQueue) *EventQueue {
	d.q.CloneInto(other)
	kept := d.live[:0]
	for _, e := range d.live {
		if !e.Scheduled() {
			continue
		}
		c := other.PendingAt(e.HeapPos())
		if c == e || c.Time != e.Time || c.seq != e.seq || c.JobID != e.JobID || c.HeapPos() != e.HeapPos() {
			d.t.Fatalf("clone remap: %v seq=%d pos=%d -> %v seq=%d pos=%d", e, e.seq, e.HeapPos(), c, c.seq, c.HeapPos())
		}
		kept = append(kept, c)
	}
	d.live = kept
	old := d.q
	d.q = other
	return old
}

// runDifferentialSchedule drives both queues with an operation schedule
// derived from the byte stream and fails on the first divergence — in
// the pop sequence, or in Len, Fired or HighWater after any step. The
// first byte sizes a preloaded schedule; each further byte selects an
// operation; times are drawn from the rng seeded by the schedule length
// to keep the schedule itself compact.
func runDifferentialSchedule(t *testing.T, ops []byte) {
	t.Helper()
	d := &diffRun{t: t, rng: rand.New(rand.NewSource(int64(len(ops)) + 1)), q: &EventQueue{}}
	other := &EventQueue{}
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
		case 2: // update
			if e := d.pick(); e != nil {
				tm := Time(d.rng.Intn(64))
				d.ref.update(d.ref.bySeq[e.seq], tm)
				d.q.Update(e, tm)
			}
		case 3: // remove
			if e := d.pick(); e != nil {
				d.ref.remove(d.ref.bySeq[e.seq])
				d.q.Remove(e)
				d.drop(e)
				d.q.Free(e)
			}
		case 4: // push at exactly the last-popped time
			d.push(d.now)
		case 5: // push into the past
			d.push(d.now - 1 - Time(d.rng.Intn(4)))
		case 6: // move a same-instant event later, any other one to now
			if e := d.pick(); e != nil {
				tm := d.now
				if e.Time == d.now {
					tm += 1 + Time(d.rng.Intn(4))
				}
				d.ref.update(d.ref.bySeq[e.seq], tm)
				d.q.Update(e, tm)
			}
		case 7: // mid-drain clone, or (one time in eight) reset and re-arm
			if d.rng.Intn(8) > 0 {
				other = d.cloneSwap(other)
				break
			}
			d.q.Reset()
			d.ref, d.live, d.now = refQueue{}, d.live[:0], 0
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
			// Weight pushes (anywhere, same-instant, past) 2:1.
			if rng.Intn(3) < 2 {
				ops[i] = []byte{0, 0, 4, 5}[rng.Intn(4)]
			} else {
				ops[i] = byte(1 + rng.Intn(3))
			}
		}
		runDifferentialSchedule(t, ops)
	}
}

// FuzzEventQueueDifferential hands the schedule to the fuzzer: `go test
// -fuzz=FuzzEventQueueDifferential ./internal/des` explores op
// sequences; the seed corpus runs on every plain `go test`.
func FuzzEventQueueDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{0, 0, 2, 1, 0, 3, 1})
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 0, 0, 0, 1, 1, 1, 1})
	// Preloaded schedule; same-instant pushes updated, removed and cloned.
	f.Add([]byte{20, 1, 4, 4, 6, 1, 4, 3, 7, 1, 5, 6, 6, 2, 1, 1, 7, 4, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<16 {
			t.Skip("schedule too long")
		}
		runDifferentialSchedule(t, ops)
	})
}
