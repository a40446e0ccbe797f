// Package des provides the discrete-event simulation substrate shared by
// the SimMR engine, the cluster testbed emulator, and the Mumak baseline.
//
// The substrate is deliberately small: simulated time is a float64 number
// of seconds, a Clock only moves forward, and one event queue, Lanes
// (lanes.go), pops in (time, sequence number) order so that events
// scheduled at the same instant fire in FIFO order. Determinism is a
// design goal: given the same schedule of events, a simulation always
// unfolds identically — the (time, seq) key is a total order, so the pop
// sequence is independent of how the queue stores its pending events.
//
// A queued event is a pointer-free 32-byte Record held by value. There
// are no handles and no payloads: Push returns the seq that names the
// record (Remove cancels by it), and a simulator keeps anything else an
// event needs in its own state, found through the record's JobID and
// Task.
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

// Arrival is one entry of a preloaded schedule (Lanes.Preload): an event
// known before the simulation starts, reduced to the two fields that
// vary.
type Arrival struct {
	Time  Time
	JobID int
}

// EventQueue is a Lanes queue behind three methods of the pointer queue
// it replaced, for callers not yet moved to Lanes.
//
// Deprecated: use Lanes.
type EventQueue struct {
	q  Lanes
	ev Record
}

// PushTask is Lanes.Push.
func (q *EventQueue) PushTask(t Time, typ, jobID, task int) { q.q.Push(t, uint8(typ), jobID, task) }

// Pop removes the earliest record and returns it, valid until the next
// Pop. It panics if no record is queued.
func (q *EventQueue) Pop() *Record {
	if !q.q.Pop(&q.ev) {
		panic("des: Pop on empty EventQueue")
	}
	return &q.ev
}

// Free does nothing: records are values.
func (q *EventQueue) Free(*Record) {}

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
