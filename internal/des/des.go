// Package des provides the discrete-event simulation substrate shared by
// the SimMR engine, the cluster testbed emulator, and the Mumak baseline.
//
// The substrate is deliberately small: simulated time is a float64 number
// of seconds, and an event queue pops in (time, sequence number) order so
// that events scheduled at the same instant fire in FIFO order.
// Determinism is a design goal: given the same schedule of events, a
// simulation always unfolds identically — the (time, seq) key is a total
// order, so the pop sequence is independent of how a queue stores its
// pending events.
//
// There are two queues, one per kind of user:
//
//   - Lanes (lanes.go) is the SimMR engine's: pointer-free 32-byte
//     Records held by value in three lanes — a preloaded arrival
//     schedule, a same-instant FIFO and a 4-ary heap — with no handles;
//     a pending event is named by its seq.
//   - EventQueue is the general one, for simulators that attach
//     payloads to events and hold handles to update or cancel them (the
//     cluster emulator, Mumak): *Event pointers from a recycled slab in
//     one 4-ary heap.
package des

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in seconds since simulation start.
type Time = float64

// Infinity is a sentinel time further in the future than any real event:
// when the "filler" shuffle of a first-wave reduce fires if its job's map
// stage never completes.
const Infinity Time = math.MaxFloat64

// Event is a scheduled occurrence in simulated time. Type and JobID are
// interpreted by the simulator that owns the queue. Task carries a task
// index without boxing; Payload carries any other state the handler
// needs.
type Event struct {
	Time    Time
	Type    int
	JobID   int
	Task    int
	Payload any

	seq   uint64 // tie-breaker: insertion order
	index int    // heap index; -1 once popped or canceled, -2 once freed
}

// freedIndex marks an event returned to the queue's free list.
const freedIndex = -2

// Scheduled reports whether the event is still pending in a queue.
func (e *Event) Scheduled() bool { return e != nil && e.index >= 0 }

// String renders the event for logs and test failures.
func (e *Event) String() string {
	return fmt.Sprintf("event{t=%.3f type=%d job=%d}", e.Time, e.Type, e.JobID)
}

// Arrival is one entry of a preloaded schedule (Lanes.Preload): an event
// known before the simulation starts, reduced to the two fields that
// vary.
type Arrival struct {
	Time  Time
	JobID int
}

// EventQueue is a priority queue of events ordered by time, with FIFO
// ordering among events at equal times. The zero value is ready to use.
//
// The backing store is a 4-ary heap specialized for *Event: sift-up and
// sift-down are concrete methods moving pointers through a hole (no
// heap.Interface, no `any` boxing, no dynamic Less/Swap dispatch per
// level), and the wider fan-out halves the tree depth relative to a
// binary heap, trading cheap in-cache-line sibling comparisons for
// expensive cross-level cache misses.
//
// Events are slab-allocated in chunks and recycled through a free list:
// a simulator that calls Free on events it has finished handling runs
// near-zero-alloc in steady state, because the live-event population
// (bounded by slots plus pending arrivals) is far smaller than the
// total event count. Queues are not safe for concurrent use; every
// concurrent simulation owns its own queue.
type EventQueue struct {
	h       []*Event
	nextSeq uint64
	fired   uint64
	hiWater int

	slab []Event  // tail of the current allocation chunk
	free []*Event // recycled events, reused before the slab grows
}

// slabChunk is the event-slab allocation granularity. One chunk covers
// the steady-state live-event population of typical replays (cluster
// slots + queued arrivals), so most runs allocate one or two chunks
// total instead of one Event per fired event.
const slabChunk = 256

// alloc hands out an event from the free list or the slab.
func (q *EventQueue) alloc() *Event {
	if n := len(q.free); n > 0 {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	if len(q.slab) == 0 {
		q.slab = make([]Event, slabChunk)
	}
	e := &q.slab[0]
	q.slab = q.slab[1:]
	return e
}

// Free recycles an event that has been popped (or removed) and fully
// handled. The caller must not retain the pointer afterwards: the queue
// will reuse the Event for a future Push. Freeing a still-scheduled
// event or freeing twice is a programming error and panics.
func (q *EventQueue) Free(e *Event) {
	if e.index >= 0 {
		panic("des: Free on scheduled event")
	}
	if e.index == freedIndex {
		panic("des: double Free")
	}
	q.recycle(e)
}

// recycle returns e to the free list unconditionally.
func (q *EventQueue) recycle(e *Event) {
	e.index = freedIndex
	e.Payload = nil
	q.free = append(q.free, e)
}

// Reset empties the queue for reuse by a fresh simulation run: pending
// events are recycled into the free list, and the sequence, fired, and
// high-water counters rewind to zero so a reused queue is
// indistinguishable from a new one. The slab and free list are retained
// — that is the point of reuse: the next run draws from memory already
// sized to the previous run's live-event population instead of
// allocating chunks again.
//
// Reset invalidates every outstanding *Event obtained from this queue;
// callers must not Free (or otherwise touch) pre-Reset events
// afterwards. Popped events that were never Freed are abandoned to the
// garbage collector.
func (q *EventQueue) Reset() {
	for i, e := range q.h {
		q.h[i] = nil
		q.recycle(e)
	}
	q.h = q.h[:0]
	q.nextSeq = 0
	q.fired = 0
	q.hiWater = 0
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// Fired returns the total number of events popped so far. It is the
// denominator of the "events per second" throughput metric reported in
// the paper (§I: "SimMR can process over one million events per second").
func (q *EventQueue) Fired() uint64 { return q.fired }

// HighWater returns the peak pending-event population seen so far —
// the quantity that bounds steady-state allocations under the
// slab/free-list discipline (allocations track peak live events, not
// total events fired).
func (q *EventQueue) HighWater() int { return q.hiWater }

// Push schedules a new event and returns it. The returned pointer can be
// used later with Update or Remove (e.g. to cancel a killed attempt).
func (q *EventQueue) Push(t Time, typ, jobID int, payload any) *Event {
	e := q.alloc()
	*e = Event{Time: t, Type: typ, JobID: jobID, Payload: payload, seq: q.nextSeq}
	q.nextSeq++
	q.heapPush(e)
	return e
}

// PushTask schedules an event carrying a task index. Unlike stuffing the
// index into Payload, no interface boxing (and hence no per-event heap
// allocation) occurs.
func (q *EventQueue) PushTask(t Time, typ, jobID, task int) *Event {
	e := q.alloc()
	*e = Event{Time: t, Type: typ, JobID: jobID, Task: task, seq: q.nextSeq}
	q.nextSeq++
	q.heapPush(e)
	return e
}

// Pop removes and returns the earliest event. It panics if the queue is
// empty; callers must check Len first.
func (q *EventQueue) Pop() *Event {
	if len(q.h) == 0 {
		panic("des: Pop on empty EventQueue")
	}
	q.fired++
	e := q.h[0]
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if n > 0 {
		q.h[0] = last
		last.index = 0
		q.down(0)
	}
	e.index = -1
	return e
}

// Peek returns the earliest event without removing it, or nil if empty.
func (q *EventQueue) Peek() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// Update changes the firing time of a pending event and restores heap
// order. It panics if the event is no longer scheduled.
func (q *EventQueue) Update(e *Event, t Time) {
	if !e.Scheduled() {
		panic("des: Update on unscheduled event")
	}
	e.Time = t
	q.fix(e.index)
}

// Remove cancels a pending event. It panics if the event is no longer
// scheduled.
func (q *EventQueue) Remove(e *Event) {
	if !e.Scheduled() {
		panic("des: Remove on unscheduled event")
	}
	i := e.index
	n := len(q.h) - 1
	if i != n {
		last := q.h[n]
		q.h[i] = last
		last.index = i
	}
	q.h[n] = nil
	q.h = q.h[:n]
	if i < n {
		q.fix(i)
	}
	e.index = -1
}

// eventBefore is the strict (Time, seq) order. seq is unique per queue
// generation, so this is a total order and every correct heap pops the
// same sequence — the property that keeps replays byte-identical across
// queue implementations.
func eventBefore(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

// heapArity is the heap fan-out. Four children per node halves the
// depth of the sift paths relative to a binary heap; the extra sibling
// comparisons per level stay within one or two cache lines of h.
const heapArity = 4

// heapPush appends e and sifts it up, maintaining the high-water mark.
func (q *EventQueue) heapPush(e *Event) {
	e.index = len(q.h)
	q.h = append(q.h, e)
	q.up(e.index)
	if len(q.h) > q.hiWater {
		q.hiWater = len(q.h)
	}
}

// up sifts the event at i toward the root, moving parents down through
// the hole instead of swapping (one write per level instead of three).
func (q *EventQueue) up(i int) {
	e := q.h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		pe := q.h[p]
		if !eventBefore(e, pe) {
			break
		}
		q.h[i] = pe
		pe.index = i
		i = p
	}
	q.h[i] = e
	e.index = i
}

// down sifts the event at i toward the leaves, pulling the smallest of
// up to heapArity children up through the hole. It reports whether the
// event moved.
func (q *EventQueue) down(i int) bool {
	n := len(q.h)
	e := q.h[i]
	i0 := i
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		min := c
		me := q.h[c]
		for j := c + 1; j < end; j++ {
			if je := q.h[j]; eventBefore(je, me) {
				min, me = j, je
			}
		}
		if !eventBefore(me, e) {
			break
		}
		q.h[i] = me
		me.index = i
		i = min
	}
	q.h[i] = e
	e.index = i
	return i != i0
}

// fix restores heap order after the key at i changed in either
// direction (container/heap.Fix semantics: try down, else up).
func (q *EventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

// Clock tracks the current simulated time and enforces monotonicity.
type Clock struct {
	now Time
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// AdvanceTo moves the clock forward to t. Moving backward is a
// programming error and panics: a discrete-event simulation must consume
// events in nondecreasing time order.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("des: clock moved backward: %.9f -> %.9f", c.now, t))
	}
	c.now = t
}

// Reset rewinds the clock to zero for reuse across simulation runs.
func (c *Clock) Reset() { c.now = 0 }
