package des

import "math"

// Record is one event of a Lanes queue, held by value: 32 bytes and no
// pointers, so a lane is a flat array the collector never scans and a
// comparison reads the key from the slot it is looking at. Type and
// JobID are interpreted by the simulator that owns the queue; Task is a
// task index (zero for events that have none).
type Record struct {
	Time  Time
	seq   uint64 // tie-breaker: insertion order
	JobID int
	Task  int32
	Type  uint8
}

// Lanes is the event queue of the SimMR engine, the cluster emulator and
// Mumak: a priority queue of Records ordered by time, with FIFO ordering
// among records at equal times. The zero value is ready to use.
//
// Pending records sit by value in one of three lanes, each sorted by
// (Time, seq); a pop takes the least of the three heads in one
// comparison, so the pop sequence is exactly that of a single heap
// holding everything:
//
//   - the schedule, a flat presorted array installed by Preload before
//     any Push (a trace's job arrivals) and read in place through a
//     cursor — entry i carries seq i, below every pushed record's;
//   - the same-instant FIFO, which takes a push at exactly the time of
//     the last pop: such a record carries the largest seq at the current
//     instant, so appending keeps the lane sorted and the hand-off costs
//     no sift;
//   - a 4-ary heap for everything else — in a replay, the timed
//     departures of running tasks, at most one per cluster slot. Sifts
//     move records through a hole; four children are two cache lines.
//
// There are no handles. Push returns the record's seq, and Remove(seq)
// cancels it with a scan — in a replay the heap and the FIFO together
// hold at most one record per busy slot plus one instant's hand-offs,
// and cancelling is rare: the engine's preemption kill, the emulator's
// losing speculative attempt. An event whose time is not known when it
// is scheduled (the engine's filler reduce) is not queued at all: Reserve
// takes its place in the seq order and counts it as pending, and Place
// files it in the heap under that seq once its time is known — exactly
// the pop order of pushing it at Infinity and updating it later.
//
// Pop and PopAt write the record into the caller's variable rather than
// returning it: a 32-byte result travels through the stack, and reading
// its fields right after the wide store stalls on store forwarding
// (DESIGN.md §9 has the measurement). The lanes' slices are the only
// storage and are kept across Reset. Queues are not safe for concurrent
// use; every concurrent simulation owns its own.
type Lanes struct {
	h []Record // heap lane

	// Same-instant lane: f[fh:] pending in pop order.
	f   []Record
	fh  int
	now Time // time of the last pop

	// Schedule lane: sched[cur:] pending, of record type schedType. sched
	// is immutable once installed and shared by clones.
	sched     []Arrival
	cur       int
	schedType uint8

	n       int // pending: the three lanes plus reservations
	nextSeq uint64
	fired   uint64
	hiWater int
}

// Reset empties the queue for reuse by a fresh simulation run: pending
// records, reservations and the schedule are dropped, and the sequence,
// fired and high-water counters rewind to zero so a reused queue is
// indistinguishable from a new one. The lanes keep their capacity —
// that is the point of reuse.
func (q *Lanes) Reset() {
	*q = Lanes{h: q.h[:0], f: q.f[:0]}
}

// Preload installs a presorted schedule of records of one type, all
// with task 0: exactly the state that pushing the entries in order onto
// a fresh queue would leave (entry i gets seq i), without a record — or
// a sift — per entry. It must come before the first Push on a fresh or
// Reset queue, and the entries must be in nondecreasing Time order;
// anything else is a programming error and panics. The queue retains s
// and never writes to it; the caller must not modify it until the queue,
// and every clone taken of it, has been Reset or dropped.
func (q *Lanes) Preload(typ uint8, s []Arrival) {
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
}

// Preloaded returns how many schedule entries are still pending. They
// count toward Len, and CloneInto shares rather than copies them.
func (q *Lanes) Preloaded() int { return len(q.sched) - q.cur }

// ScheduleNext reports whether the next Pop would take the schedule's
// next entry.
func (q *Lanes) ScheduleNext() bool {
	lane, _ := q.head()
	return lane == laneSched
}

// OwnSchedule moves the queue onto a private copy of its schedule,
// built in buf's storage (which must not overlap the current schedule)
// and returned for the caller to keep: the way a clone outlives the
// queue it was cloned from.
func (q *Lanes) OwnSchedule(buf []Arrival) []Arrival {
	q.sched = append(buf[:0], q.sched...)
	return q.sched
}

// CloneInto reproduces the queue's complete state into dst, in dst's
// own lane storage: two slice copies (the heap as it lies, the pending
// part of the same-instant lane) and the counters. The schedule is
// immutable, so the clone shares it and copies only the cursor (see
// Preload for the lifetime this imposes, and OwnSchedule for ending the
// sharing). Seqs name the same records in the clone as in the source,
// reservations included. The source is not modified and may be cloned
// again.
func (q *Lanes) CloneInto(dst *Lanes) {
	h, f := append(dst.h[:0], q.h...), append(dst.f[:0], q.f[q.fh:]...)
	*dst = *q
	dst.h, dst.f, dst.fh = h, f, 0
}

// Len returns the number of pending events: the records in the three
// lanes plus the reservations not yet placed.
func (q *Lanes) Len() int { return q.n }

// Fired returns the total number of records popped so far, plus the
// events Count added. It is the denominator of the "events per second"
// throughput metric reported in the paper (§I: "SimMR can process over
// one million events per second").
func (q *Lanes) Fired() uint64 { return q.fired }

// Count adds n events to Fired that the queue's owner handled without
// queueing them: due the instant they were scheduled, after everything
// else due then, they are what the next n pops would have returned.
func (q *Lanes) Count(n int) { q.fired += uint64(n) }

// HighWater returns the peak pending-event population seen so far,
// reservations included — the engine's "heap high-water" observability
// counter. A preloaded schedule counts in full from the start, exactly
// as if its entries had been pushed.
func (q *Lanes) HighWater() int { return q.hiWater }

// grew counts one more pending event.
func (q *Lanes) grew() {
	if q.n++; q.n > q.hiWater {
		q.hiWater = q.n
	}
}

// Push schedules a record under the next seq and returns that seq, by
// which Remove can cancel it. A record at the time of the last pop joins
// the same-instant lane: its seq is the largest so far, so appending
// keeps the lane sorted unless the lane's tail is later than the record
// — possible only in a queue driven backwards in time — in which case
// the heap takes it, as it takes everything else.
func (q *Lanes) Push(t Time, typ uint8, jobID, task int) uint64 {
	seq := q.nextSeq
	q.nextSeq++
	if t == q.now && (q.fh == len(q.f) || q.f[len(q.f)-1].Time <= t) {
		// Slide the pending records down over a consumed prefix at least
		// as long rather than growing the slice: a lane that never quite
		// drains stays bounded by its population at amortized O(1).
		if len(q.f) == cap(q.f) && q.fh > 0 && 2*q.fh >= len(q.f) {
			q.f, q.fh = q.f[:copy(q.f, q.f[q.fh:])], 0
		}
		q.f = append(q.f, Record{Time: t, seq: seq, JobID: jobID, Task: int32(task), Type: typ})
	} else {
		q.heapPush(t, seq, typ, jobID, task)
	}
	q.grew()
	return seq
}

// Reserve takes the next seq for an event whose time is not known yet
// and counts it as pending (Len, HighWater) without queueing anything.
// Place files it later; until then it sorts after every queued record,
// as if it sat at Infinity.
func (q *Lanes) Reserve() uint64 {
	seq := q.nextSeq
	q.nextSeq++
	q.grew()
	return seq
}

// Place files a reserved event in the heap at time t under the seq
// Reserve gave it, so it pops where a record pushed at reservation time
// and updated to t would. Placing with no reservation outstanding is a
// programming error and panics.
func (q *Lanes) Place(seq uint64, t Time, typ uint8, jobID, task int) {
	if queued := len(q.h) + len(q.f) - q.fh + q.Preloaded(); q.n == queued {
		panic("des: Place without a reservation")
	}
	q.heapPush(t, seq, typ, jobID, task)
}

// Remove cancels the pending record pushed (or placed) under seq and
// reports whether there was one. It scans the heap and the same-instant
// lane — never the schedule, whose entries are not cancelled.
func (q *Lanes) Remove(seq uint64) bool {
	for i := range q.h {
		if q.h[i].seq == seq {
			q.heapRemove(i)
			q.n--
			return true
		}
	}
	for i := q.fh; i < len(q.f); i++ {
		if q.f[i].seq == seq {
			if i == q.fh {
				q.fh++
			} else {
				q.f = q.f[:i+copy(q.f[i:], q.f[i+1:])]
			}
			q.fifoDrained()
			q.n--
			return true
		}
	}
	return false
}

// fifoDrained rewinds the same-instant lane once nothing in it is
// pending, so its storage is reused from the start.
func (q *Lanes) fifoDrained() {
	if q.fh == len(q.f) {
		q.f, q.fh = q.f[:0], 0
	}
}

// Lane numbers, as head reports them.
const (
	laneNone = iota
	laneSched
	laneFIFO
	laneHeap
)

// head returns the lane holding the earliest pending record and that
// record's time; laneNone and +Inf when the lanes are empty.
func (q *Lanes) head() (lane int, t Time) {
	// +Inf is later than any record's time (Infinity is finite), so the
	// first lane with a head takes it without an "is there one yet" test.
	t, seq := math.Inf(1), uint64(0)
	if q.cur < len(q.sched) {
		lane, t, seq = laneSched, q.sched[q.cur].Time, uint64(q.cur)
	}
	if q.fh < len(q.f) {
		// A schedule entry wins the tie: its seq is below every pushed one.
		if r := &q.f[q.fh]; r.Time < t {
			lane, t, seq = laneFIFO, r.Time, r.seq
		}
	}
	if len(q.h) > 0 {
		if r := &q.h[0]; r.Time < t || (r.Time == t && r.seq < seq) {
			lane, t = laneHeap, r.Time
		}
	}
	return lane, t
}

// Pop removes the earliest record into *ev and reports whether there
// was one. False with Len() > 0 means only reservations are pending.
func (q *Lanes) Pop(ev *Record) bool {
	lane, _ := q.head()
	return q.take(lane, ev)
}

// PopAt is Pop if the earliest record is due at exactly now, and false
// otherwise: the same-instant drain loop's one call per event.
func (q *Lanes) PopAt(now Time, ev *Record) bool {
	lane, t := q.head()
	return t == now && q.take(lane, ev)
}

// take removes the head of the given lane into *ev.
func (q *Lanes) take(lane int, ev *Record) bool {
	switch lane {
	case laneSched:
		a := &q.sched[q.cur]
		ev.Time, ev.seq, ev.JobID, ev.Task, ev.Type = a.Time, uint64(q.cur), a.JobID, 0, q.schedType
		q.cur++
	case laneFIFO:
		*ev = q.f[q.fh]
		q.fh++
		q.fifoDrained()
	case laneHeap:
		*ev = q.h[0]
		q.heapRemove(0)
	default:
		return false
	}
	q.fired++
	q.now = ev.Time
	q.n--
	return true
}

// before is the strict (Time, seq) order. seq is unique per queue
// generation, so this is a total order and every correct queue pops the
// same sequence — the property that keeps replays byte-identical across
// queue implementations.
func (r *Record) before(o *Record) bool {
	if r.Time != o.Time {
		return r.Time < o.Time
	}
	return r.seq < o.seq
}

// heapArity is the heap lane's fan-out. Four children per node halves
// the depth of the sift paths relative to a binary heap; the extra
// sibling comparisons per level stay within two cache lines of h.
const heapArity = 4

// heapPush files a record in the heap lane: the hole opened at the end
// rises past every later parent, and the record is written once, where
// the hole stops.
func (q *Lanes) heapPush(t Time, seq uint64, typ uint8, jobID, task int) {
	i := len(q.h)
	q.h = append(q.h, Record{})
	for i > 0 {
		p := (i - 1) / heapArity
		if pr := &q.h[p]; !(t < pr.Time || (t == pr.Time && seq < pr.seq)) {
			break
		}
		q.h[i] = q.h[p]
		i = p
	}
	q.h[i] = Record{Time: t, seq: seq, JobID: jobID, Task: int32(task), Type: typ}
}

// heapRemove deletes the record at heap slot i: the last record fills
// the hole, which first sinks below every earlier child and, if it did
// not move, rises past every later parent (container/heap.Fix order).
// The last record is read where it lies and written once.
func (q *Lanes) heapRemove(i int) {
	n := len(q.h) - 1
	h := q.h[:n]
	if i == n {
		q.h = h
		return
	}
	last, i0 := &q.h[n], i
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		min := c
		for j, end := c+1, c+heapArity; j < end && j < n; j++ {
			if h[j].before(&h[min]) {
				min = j
			}
		}
		if !h[min].before(last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	if i == i0 {
		for i > 0 {
			p := (i - 1) / heapArity
			if !last.before(&h[p]) {
				break
			}
			h[i] = h[p]
			i = p
		}
	}
	h[i] = *last
	q.h = h
}
