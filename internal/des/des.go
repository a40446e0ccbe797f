// Package des provides the discrete-event simulation substrate shared by
// the SimMR engine, the cluster testbed emulator, and the Mumak baseline.
//
// The substrate is deliberately small: simulated time is a float64 number
// of seconds, events carry an opaque payload, and the event queue pops
// in (time, sequence number) order so that events scheduled at the same
// instant fire in FIFO order. Determinism is a design goal: given the
// same schedule of events, a simulation always unfolds identically — the
// (time, seq) key is a total order, so the pop sequence is independent
// of how the queue stores its pending events (a presorted arrival
// schedule, a same-instant FIFO, and a 4-ary heap; see EventQueue).
package des

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in seconds since simulation start.
type Time = float64

// Infinity is a sentinel time further in the future than any real event.
// The SimMR engine uses it for "filler" shuffle tasks whose duration is
// unknown until the map stage completes.
const Infinity Time = math.MaxFloat64

// Event is a scheduled occurrence in simulated time. Type and JobID are
// interpreted by the simulator that owns the queue. Task carries a task
// index without boxing (the hot-path payload of the SimMR engine);
// Payload carries any other state the handler needs.
type Event struct {
	Time    Time
	Type    int
	JobID   int
	Task    int
	Payload any

	seq   uint64 // tie-breaker: insertion order
	index int    // queue position (see HeapPos); -1 once popped or canceled, -2 once freed
}

// freedIndex marks an event returned to the queue's free list.
const freedIndex = -2

// Queue positions name the lane an event sits in: heap slots count up
// from 0, same-instant FIFO slots count up from fifoBase, and the one
// materialized head of the preloaded schedule sits at schedPos. The
// bases are far beyond any reachable heap or FIFO length.
const (
	fifoBase = 1 << 29
	schedPos = 1 << 30
)

// Scheduled reports whether the event is still pending in a queue.
func (e *Event) Scheduled() bool { return e != nil && e.index >= 0 }

// HeapPos returns the event's current queue position, or -1 if the
// event is not scheduled. Positions pair with PendingAt under the
// CloneInto contract: a handle h into a cloned queue remaps to
// clone.PendingAt(h.HeapPos()).
func (e *Event) HeapPos() int {
	if e.index < 0 {
		return -1
	}
	return e.index
}

// String renders the event for logs and test failures.
func (e *Event) String() string {
	return fmt.Sprintf("event{t=%.3f type=%d job=%d}", e.Time, e.Type, e.JobID)
}

// Arrival is one entry of a preloaded schedule: an event known before
// the simulation starts, reduced to the two fields that vary.
type Arrival struct {
	Time  Time
	JobID int
}

// EventQueue is a priority queue of events ordered by time, with FIFO
// ordering among events at equal times. The zero value is ready to use.
//
// Pending events sit in one of three lanes, each sorted by (Time, seq);
// Pop and Peek take the least of the three heads, so the pop sequence
// is exactly that of a single heap holding everything:
//
//   - the schedule, a flat presorted array installed by Preload before
//     any Push (a trace's job arrivals) and consumed through a cursor —
//     entry i carries seq i, below every pushed event's;
//   - the same-instant FIFO, which takes a push at exactly the time of
//     the last pop: such an event carries the largest seq at the
//     current instant, so appending keeps the lane sorted and the
//     hand-off costs no sift;
//   - a 4-ary heap for everything else — in a replay, the timed
//     departures of running tasks, at most one per cluster slot.
//
// The heap is specialized for *Event: sift-up and sift-down are
// concrete methods moving pointers through a hole (no heap.Interface,
// no `any` boxing, no dynamic Less/Swap dispatch per level), and the
// wider fan-out halves the tree depth relative to a binary heap,
// trading cheap in-cache-line sibling comparisons for expensive
// cross-level cache misses.
//
// Events are slab-allocated in chunks and recycled through a free list:
// a simulator that calls Free on events it has finished handling runs
// near-zero-alloc in steady state, because the materialized-event
// population (bounded by cluster slots plus the events of one instant;
// the schedule holds no Events) is far smaller than the total event
// count. Queues are not safe for concurrent use; every concurrent
// simulation owns its own queue.
type EventQueue struct {
	h []*Event // heap lane

	// Same-instant lane: f[fh:] pending in pop order, f[:fh] nil.
	f   []*Event
	fh  int
	now Time // time of the last pop

	// Schedule lane: sched[cur:] pending, of event type schedType; sh is
	// sched[cur] materialized so the lane has a head to compare, peek
	// and pop like the others (nil once the schedule is exhausted).
	// sched itself is immutable once installed and shared by clones.
	sched     []Arrival
	cur       int
	schedType int
	sh        *Event

	n       int // pending events across the three lanes
	nextSeq uint64
	fired   uint64
	hiWater int

	slab []Event  // tail of the current allocation chunk
	free []*Event // recycled events, reused before the slab grows
}

// slabChunk is the event-slab allocation granularity. One chunk covers
// the steady-state materialized-event population of typical replays
// (running tasks, bounded by cluster slots, plus the events of one
// instant), so most runs allocate one or two chunks total instead of
// one Event per fired event.
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
// events are recycled into the free list, the schedule is dropped, and
// the sequence, fired, and high-water counters rewind to zero so a
// reused queue is indistinguishable from a new one. The slab and free
// list are retained — that is the point of reuse: the next run draws
// from memory already sized to the previous run's live-event population
// instead of allocating chunks again.
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
	for i := q.fh; i < len(q.f); i++ {
		q.recycle(q.f[i])
		q.f[i] = nil
	}
	q.f, q.fh, q.now = q.f[:0], 0, 0
	if q.sh != nil {
		q.recycle(q.sh)
		q.sh = nil
	}
	q.sched, q.cur = nil, 0
	q.n = 0
	q.nextSeq = 0
	q.fired = 0
	q.hiWater = 0
}

// Preload installs a presorted schedule of events of one type, all
// carrying nil payloads: exactly the state that pushing the entries in
// order onto a fresh queue would leave (entry i gets seq i), without
// materializing an Event — or paying a sift — per entry. It must come
// before the first Push on a fresh or Reset queue, and the entries must
// be in nondecreasing Time order; anything else is a programming error
// and panics. The queue retains s and never writes to it; the caller
// must not modify it until the queue, and every clone taken of it, has
// been Reset or dropped.
func (q *EventQueue) Preload(typ int, s []Arrival) {
	if q.nextSeq != 0 {
		panic("des: Preload on a queue already in use")
	}
	for i := 1; i < len(s); i++ {
		if !(s[i-1].Time <= s[i].Time) {
			panic("des: Preload schedule not sorted by time")
		}
	}
	q.sched, q.cur, q.schedType = s, 0, typ
	q.n = len(s)
	q.nextSeq = uint64(len(s))
	q.hiWater = len(s)
	q.loadSchedHead()
}

// Preloaded returns how many schedule entries are still pending. They
// count toward Len but hold no Event, and CloneInto shares rather than
// copies them.
func (q *EventQueue) Preloaded() int { return len(q.sched) - q.cur }

// OwnSchedule moves the queue onto a private copy of its schedule,
// built in buf's storage (which must not overlap the current schedule)
// and returned for the caller to keep: the way a clone outlives the
// queue it was cloned from.
func (q *EventQueue) OwnSchedule(buf []Arrival) []Arrival {
	q.sched = append(buf[:0], q.sched...)
	return q.sched
}

// loadSchedHead materializes sched[cur] as the schedule lane's head.
func (q *EventQueue) loadSchedHead() {
	if q.cur == len(q.sched) {
		q.sh = nil
		return
	}
	a := q.sched[q.cur]
	e := q.alloc()
	*e = Event{Time: a.Time, Type: q.schedType, JobID: a.JobID, seq: uint64(q.cur), index: schedPos}
	q.sh = e
}

// CloneInto reproduces the queue's complete pending state into dst,
// recycling dst's existing storage (lane slices, slab, free list) the
// way Reset does — the copy-on-write fork path hands a pooled engine's
// queue here so steady-state forking allocates nothing once warmed.
// The cost is the materialized events (heap and same-instant lanes);
// the schedule is immutable, so the clone shares it and copies only
// the cursor (see Preload for the lifetime this imposes, and
// OwnSchedule for ending the sharing).
//
// The clone preserves everything that determines future behavior:
// every pending event's (Time, seq) key, payload, and — deliberately —
// its queue position, plus the nextSeq, fired, and high-water counters.
// Position preservation is a contract, not an accident: PendingAt(p)
// on the clone is the clone's copy of PendingAt(p) on the source, so a
// simulator holding *Event handles into the source (running-task
// departures, filler reduces) can remap each handle h to
// dst.PendingAt(h.HeapPos()) in O(1) without any translation table.
// Payloads are copied shallowly; the SimMR engine only schedules nil
// payloads, and callers with pointer payloads must remap them.
//
// The source is not modified and may be cloned again; dst's previously
// outstanding events are invalidated exactly as by Reset.
func (q *EventQueue) CloneInto(dst *EventQueue) {
	dst.Reset()
	dst.h = dst.cloneLane(dst.h, q.h, 0)
	dst.f = dst.cloneLane(dst.f, q.f, q.fh)
	dst.fh, dst.now = q.fh, q.now
	dst.sched, dst.cur, dst.schedType = q.sched, q.cur, q.schedType
	if q.sh != nil {
		dst.sh = dst.alloc()
		*dst.sh = *q.sh
	}
	dst.n = q.n
	dst.nextSeq = q.nextSeq
	dst.fired = q.fired
	dst.hiWater = q.hiWater
}

// cloneLane copies another queue's lane src[from:] event by event into
// buf, slot for slot (each copy keeps its index, which already names
// its slot), leaving the slots below from nil.
func (q *EventQueue) cloneLane(buf, src []*Event, from int) []*Event {
	if cap(buf) < len(src) {
		buf = make([]*Event, len(src))
	} else {
		buf = buf[:len(src)]
		clear(buf[:from])
	}
	for i := from; i < len(src); i++ {
		c := q.alloc()
		*c = *src[i]
		buf[i] = c
	}
	return buf
}

// PendingAt returns the pending event at queue position p, as reported
// by HeapPos. Positions are queue-internal and change as events push
// and pop; the accessor exists for the CloneInto remapping contract
// above, where source and clone positions coincide by construction.
// Positions 0 <= p < Len() name heap slots as long as the other lanes
// are empty.
func (q *EventQueue) PendingAt(p int) *Event {
	switch {
	case p < fifoBase:
		return q.h[p]
	case p < schedPos:
		return q.f[p-fifoBase]
	default:
		return q.sh
	}
}

// Len returns the number of pending events, across all lanes.
func (q *EventQueue) Len() int { return q.n }

// Fired returns the total number of events popped so far. It is the
// denominator of the "events per second" throughput metric reported in
// the paper (§I: "SimMR can process over one million events per second").
func (q *EventQueue) Fired() uint64 { return q.fired }

// HighWater returns the peak pending-event population seen so far,
// across all lanes — the engine's "heap high-water" observability
// counter. A preloaded schedule counts in full from the start, exactly
// as if its entries had been pushed.
func (q *EventQueue) HighWater() int { return q.hiWater }

// Push schedules a new event and returns it. The returned pointer can be
// used later with Update or Remove (e.g. to patch a filler shuffle).
func (q *EventQueue) Push(t Time, typ, jobID int, payload any) *Event {
	e := q.alloc()
	*e = Event{Time: t, Type: typ, JobID: jobID, Payload: payload, seq: q.nextSeq}
	q.push(e)
	return e
}

// PushTask schedules an event carrying a task index. Unlike stuffing the
// index into Payload, no interface boxing (and hence no per-event heap
// allocation) occurs — this is the engine's hot path.
func (q *EventQueue) PushTask(t Time, typ, jobID, task int) *Event {
	e := q.alloc()
	*e = Event{Time: t, Type: typ, JobID: jobID, Task: task, seq: q.nextSeq}
	q.push(e)
	return e
}

// push files a new event under the next seq. An event at the time of
// the last pop joins the same-instant lane: its seq is the largest so
// far, so appending keeps the lane sorted unless the lane's tail is
// later than the event — possible only in a queue driven backwards in
// time — in which case the heap takes it, as it takes everything else.
func (q *EventQueue) push(e *Event) {
	q.nextSeq++
	if e.Time == q.now && (q.fh == len(q.f) || q.f[len(q.f)-1].Time <= e.Time) {
		q.fifoPush(e)
	} else {
		q.heapPush(e)
	}
	if q.n++; q.n > q.hiWater {
		q.hiWater = q.n
	}
}

// fifoPush appends e to the same-instant lane, first sliding the
// pending events down over a consumed prefix at least as long rather
// than growing the slice: a lane that never quite drains stays bounded
// by its population at amortized O(1).
func (q *EventQueue) fifoPush(e *Event) {
	if len(q.f) == cap(q.f) && q.fh > 0 && 2*q.fh >= len(q.f) {
		k := copy(q.f, q.f[q.fh:])
		clear(q.f[k:])
		q.f, q.fh = q.f[:k], 0
		for i, m := range q.f {
			m.index = fifoBase + i
		}
	}
	e.index = fifoBase + len(q.f)
	q.f = append(q.f, e)
}

// fifoRemove takes the event at slot i out of the same-instant lane,
// closing the gap so the lane keeps its order.
func (q *EventQueue) fifoRemove(i int) {
	if i == q.fh {
		q.f[i] = nil
		q.fh++
	} else {
		copy(q.f[i:], q.f[i+1:])
		last := len(q.f) - 1
		q.f[last] = nil
		q.f = q.f[:last]
		for ; i < last; i++ {
			q.f[i].index = fifoBase + i
		}
	}
	if q.fh == len(q.f) {
		q.f, q.fh = q.f[:0], 0
	}
}

// Peek returns the earliest event without removing it, or nil if empty.
func (q *EventQueue) Peek() *Event {
	e := q.sh
	if q.fh < len(q.f) {
		if f := q.f[q.fh]; e == nil || eventBefore(f, e) {
			e = f
		}
	}
	if len(q.h) > 0 {
		if h := q.h[0]; e == nil || eventBefore(h, e) {
			e = h
		}
	}
	return e
}

// Pop removes and returns the earliest event. It panics if the queue is
// empty; callers must check Len first.
func (q *EventQueue) Pop() *Event {
	e := q.Peek()
	if e == nil {
		panic("des: Pop on empty EventQueue")
	}
	q.fired++
	q.now = e.Time
	q.unlink(e)
	return e
}

// unlink takes a pending event out of whichever lane holds it.
func (q *EventQueue) unlink(e *Event) {
	switch i := e.index; {
	case i < fifoBase:
		q.heapRemove(i)
	case i < schedPos:
		q.fifoRemove(i - fifoBase)
	default:
		q.cur++
		q.loadSchedHead()
	}
	e.index = -1
	q.n--
}

// Update changes the firing time of a pending event and restores queue
// order; the event keeps its seq. It panics if the event is no longer
// scheduled. An event in the same-instant or schedule lane moves to the
// heap: those lanes stay sorted only by construction.
func (q *EventQueue) Update(e *Event, t Time) {
	if !e.Scheduled() {
		panic("des: Update on unscheduled event")
	}
	if e.index < fifoBase {
		e.Time = t
		q.fix(e.index)
		return
	}
	q.unlink(e)
	e.Time = t
	q.heapPush(e)
	q.n++
}

// Remove cancels a pending event. It panics if the event is no longer
// scheduled.
func (q *EventQueue) Remove(e *Event) {
	if !e.Scheduled() {
		panic("des: Remove on unscheduled event")
	}
	q.unlink(e)
}

// heapRemove deletes the event at heap slot i.
func (q *EventQueue) heapRemove(i int) {
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

// heapPush appends e to the heap lane and sifts it up.
func (q *EventQueue) heapPush(e *Event) {
	e.index = len(q.h)
	q.h = append(q.h, e)
	q.up(e.index)
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
