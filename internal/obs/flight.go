package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync/atomic"
)

// triggerPollEvery spaces the flight recorder's trigger-flag polls: the
// atomic load runs when the write count crosses a multiple of 512, so
// an external Trigger costs the hot path one compare per block, not an
// atomic per event.
const triggerPollEvery = 512

// defaultFlightRing is the ring capacity NewFlightRecorder uses for
// size <= 0: large enough to hold the full closing act of a thousand-job
// replay, small enough (4096 * 56 B) to attach one per sweep cell
// without noticing.
const defaultFlightRing = 4096

// FlightRecorder is a fixed-size ring over the engine event stream —
// the always-on post-mortem capture of the ops plane. It records every
// event into a preallocated ring (zero allocations steady-state;
// TestReplayAllocBudget holds the bare bound with one attached) and, on
// demand, snapshots the last ringSize events into an immutable
// FlightDump for rendering as a Chrome trace or an attr-compatible
// record.
//
// Concurrency follows the Sink contract: Event, Events, RunEnd, Dump,
// and Fork are owner-side — the engine goroutine (or the caller that
// owns the engine, once the run has returned). Only Trigger and Latest
// are safe from other goroutines: Trigger sets a flag the owner polls
// whenever a delivery crosses a 512-event boundary, and Latest loads
// the last published dump through an atomic pointer. Readers therefore
// never touch the live ring.
//
// The recorder is Tee-composable like any Sink and survives engine
// reuse: a pooled engine's next run keeps appending to the same ring,
// so a dump taken between runs still shows the previous run's tail.
type FlightRecorder struct {
	ring    []Event
	mask    uint64
	written uint64 // total events ever recorded; owner-side only
	label   string

	counters Counters
	ended    bool

	want atomic.Bool // a Trigger is pending
	last atomic.Pointer[FlightDump]
}

// NewFlightRecorder returns a recorder retaining the last size events
// (rounded up to a power of two, minimum 64); size <= 0 selects the
// 4096-event default. The ring is the only allocation the recorder
// ever makes outside Dump.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = defaultFlightRing
	}
	n := 64
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{ring: make([]Event, n), mask: uint64(n - 1)}
}

// SetLabel names the recorder in its dumps (e.g. the sweep cell or
// branch it is attached to). Owner-side, typically right after
// construction.
func (f *FlightRecorder) SetLabel(label string) { f.label = label }

// Event records one engine event into the ring: the one-element case
// of Events.
func (f *FlightRecorder) Event(ev Event) { f.Events((&[1]Event{ev})[:]) }

// Events copies a block into the ring (BatchSink) and polls the trigger
// flag if the block carried the write count across a 512-event
// boundary — once per block, however many boundaries it crossed. A
// block longer than the ring keeps its tail, as recording it event by
// event would.
func (f *FlightRecorder) Events(evs []Event) {
	before := f.written
	f.written += uint64(len(evs))
	if over := len(evs) - len(f.ring); over > 0 {
		evs = evs[over:]
	}
	at := (f.written - uint64(len(evs))) & f.mask
	n := copy(f.ring[at:], evs)
	copy(f.ring, evs[n:])
	if before/triggerPollEvery != f.written/triggerPollEvery && f.want.Load() {
		f.want.Store(false)
		f.publish(f.capture("trigger"))
	}
}

// RunEnd stores the run counters for inclusion in later dumps and
// serves any pending Trigger that arrived in the run's final stretch
// (fewer than 512 events before the end, where Event's poll would
// never fire).
func (f *FlightRecorder) RunEnd(c Counters) {
	f.counters = c
	f.ended = true
	if f.want.CompareAndSwap(true, false) {
		f.publish(f.capture("trigger"))
	}
}

// Trigger requests a dump: the owner publishes one at the next poll
// point (every 512 events, or at RunEnd). Safe from any goroutine —
// this is what `POST /runs/{id}/flight` calls on a live run.
func (f *FlightRecorder) Trigger() { f.want.Store(true) }

// Dump snapshots the ring now and publishes the result so Latest
// observers see it. Owner-side only: callers use it after the run has
// returned (deadline-miss and error post-mortems) or between pooled
// runs. trigger names the cause ("deadline-miss", "error", "manual").
func (f *FlightRecorder) Dump(trigger string) *FlightDump {
	d := f.capture(trigger)
	f.publish(d)
	return d
}

// Latest returns the most recently published dump, or nil if none has
// been taken. Safe from any goroutine; the dump is immutable.
func (f *FlightRecorder) Latest() *FlightDump { return f.last.Load() }

// Fork returns a new recorder of the same capacity seeded with the
// receiver's ring contents, so a what-if branch's flight dump shows
// the shared prefix leading into the divergence — the same
// prefix-continuation contract as attr.Sink.Fork. Owner-side, between
// events, like the engine snapshot it accompanies.
func (f *FlightRecorder) Fork() *FlightRecorder {
	nf := &FlightRecorder{
		ring:     make([]Event, len(f.ring)),
		mask:     f.mask,
		written:  f.written,
		label:    f.label,
		counters: f.counters,
		ended:    f.ended,
	}
	copy(nf.ring, f.ring)
	return nf
}

// capture copies the retained window, oldest first.
func (f *FlightRecorder) capture(trigger string) *FlightDump {
	keep := f.written
	if keep > uint64(len(f.ring)) {
		keep = uint64(len(f.ring))
	}
	evs := make([]Event, keep)
	start := f.written - keep
	for i := range evs {
		evs[i] = f.ring[(start+uint64(i))&f.mask]
	}
	var now float64
	if keep > 0 {
		now = evs[keep-1].Time
	}
	return &FlightDump{
		Label:    f.label,
		Trigger:  trigger,
		Time:     now,
		Dropped:  f.written - keep,
		Events:   evs,
		Counters: f.counters,
		Ended:    f.ended,
	}
}

func (f *FlightRecorder) publish(d *FlightDump) { f.last.Store(d) }

// FlightDump is one immutable flight-recorder snapshot: the last
// ring-full of engine events before the trigger, plus enough context
// to render them. Once published it is never mutated, so any number of
// readers may serve it concurrently.
type FlightDump struct {
	// Label names the recorder (sweep cell, branch, ...); empty for a
	// plain replay.
	Label string
	// Trigger is the dump cause: "deadline-miss", "error", "manual",
	// "trigger" (asynchronous Trigger call), or "run-end".
	Trigger string
	// Time is the simulated time of the newest retained event.
	Time float64
	// Dropped counts events recorded before the retained window — the
	// ring overwrote them.
	Dropped uint64
	// Events is the retained window, oldest first.
	Events []Event
	// Counters/Ended carry the last RunEnd delivery, when one happened
	// before the dump.
	Counters Counters
	Ended    bool
}

// flightEvent is the JSON wire form of one event: kind by stable name,
// and the two fields that can legitimately be +Inf (filler reduces)
// encoded as null so the document stays valid JSON.
type flightEvent struct {
	Time       float64  `json:"t"`
	Kind       string   `json:"kind"`
	JobID      int      `json:"job"`
	Task       int      `json:"task"`
	End        *float64 `json:"end,omitempty"`
	ShuffleEnd *float64 `json:"shuffle_end,omitempty"`
}

type flightFile struct {
	Label    string        `json:"label,omitempty"`
	Trigger  string        `json:"trigger"`
	Time     float64       `json:"time"`
	Dropped  uint64        `json:"dropped"`
	Ended    bool          `json:"ended"`
	Counters Counters      `json:"counters"`
	Events   []flightEvent `json:"events"`
}

// finiteOrNil maps +Inf (a filler's unknown end) to nil for JSON.
func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 1) {
		return nil
	}
	return &v
}

// WriteJSON writes the dump as the attr-compatible post-mortem record:
// every retained event with its kind by name, an unknown (+Inf) end
// left out.
func (d *FlightDump) WriteJSON(w io.Writer) error {
	out := flightFile{
		Label: d.Label, Trigger: d.Trigger, Time: d.Time,
		Dropped: d.Dropped, Ended: d.Ended, Counters: d.Counters,
		Events: make([]flightEvent, len(d.Events)),
	}
	for i, ev := range d.Events {
		out.Events[i] = flightEvent{
			Time: ev.Time, Kind: ev.Kind.String(),
			JobID: ev.JobID, Task: ev.Task,
			End: finiteOrNil(ev.End), ShuffleEnd: finiteOrNil(ev.ShuffleEnd),
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeTrace renders the retained window through ChromeTraceSink.
// Spans whose start was overwritten by the ring are dropped by the
// timeline layer (the documented mid-stream-attach tolerance), so a
// truncated window still renders.
func (d *FlightDump) WriteChromeTrace(w io.Writer) error {
	sink := NewChromeTraceSink()
	for _, ev := range d.Events {
		sink.Event(ev)
	}
	sink.RunEnd(d.Counters)
	return sink.WriteJSON(w)
}
