// Package obs is the engine observability layer: a pluggable Sink
// interface that receives every scheduling decision the SimMR engine
// makes, as typed events, in exactly the order the engine handled them.
//
// The contract (DESIGN.md §8):
//
//   - Zero overhead when off. The engine guards every emission with a
//     single nil check; with no sink configured a replay performs no
//     observability work beyond plain integer counters.
//     TestReplayAllocBudget holds the allocations, bare and observed.
//   - Exact order, delivered in blocks. The engine appends each event to
//     a block of its own (512 events) and hands the sink the filled part
//     when it is full and on every way out of Run and RunEvents —
//     finished (before RunEnd), paused or failed. The delivered sequence
//     is the engine's handled order, every event exactly once — a
//     replayed audit log of the simulation, in the spirit of the paper's
//     per-job timeline validation (Figures 1–2). Whenever the engine is
//     not inside Run/RunEvents, and whenever RunEnd is called, the sink
//     has seen everything handled so far; in between it trails by less
//     than one block.
//   - The stream is the one record of progress. Its events of the
//     paper's seven kinds (Kind < KindMapSlotAlloc) are exactly the
//     events the engine fired: over a replay they number Result.Events
//     (Counters.Events), over a fork's stream the events fired after its
//     branch point. Its KindJobDeparture events are the jobs done. A
//     sink that wants live progress — the run registry's engine hook —
//     counts them; the engine has no other progress channel.
//     TestStreamCountsFiredEvents holds this; a change to what the
//     engine emits keeps it or bumps engine.SemanticsVersion.
//   - Sink is the whole obligation, and the stream a sink's only input:
//     the engine calls nothing on a sink but Event, Events and RunEnd.
//     A sink with only Event and RunEnd receives each block as a loop of
//     Event calls. One that also implements BatchSink receives it in one
//     Events call: the slice is in handled order, contiguous with the
//     previous delivery, and valid only during the call.
//   - One sink per engine. Sinks are not required to be safe for
//     concurrent use; under parallel fan-out (ReplayBatchCfg,
//     CapacitySweep) every engine must own its own sink instance,
//     built via a SinkFactory.
//
// Three concrete sinks ship with the package: TimelineSink (slot
// occupancy, Figure 1/2-style), ChromeTraceSink (chrome://tracing /
// Perfetto export), and MetricsSink (concurrency-safe counter
// snapshots). RecordSink captures the raw stream for tests and custom
// processing; FlightRecorder keeps its tail.
package obs

// Kind identifies one engine event type. The first seven kinds map
// one-to-one onto the paper's seven §III-B event types; the remainder
// expose the engine's slot-allocation and shuffle-patching internals.
type Kind uint8

const (
	// The paper's seven event types (§III-B). Task "start/finish" are
	// the engine's task arrival/departure events.
	KindJobArrival Kind = iota
	KindJobDeparture
	KindMapTaskStart
	KindMapTaskFinish
	KindReduceTaskStart
	KindReduceTaskFinish
	KindMapStageComplete

	// Engine internals beyond the paper's taxonomy.
	KindMapSlotAlloc      // policy granted a map slot to a job
	KindMapSlotRelease    // a map slot became free again
	KindReduceSlotAlloc   // policy granted a reduce slot to a job
	KindReduceSlotRelease // a reduce slot became free again
	KindPreempt           // a running map task was killed (PreemptMapTasks)
	KindFillerPatch       // a first-wave filler reduce got its real end time

	// KindCount bounds the Kind space for per-kind counter arrays.
	KindCount
)

var kindNames = [KindCount]string{
	"job-arrival", "job-departure",
	"map-task-start", "map-task-finish",
	"reduce-task-start", "reduce-task-finish",
	"map-stage-complete",
	"map-slot-alloc", "map-slot-release",
	"reduce-slot-alloc", "reduce-slot-release",
	"preempt", "filler-patch",
}

// String returns the stable lowercase name of the kind.
func (k Kind) String() string {
	if k < KindCount {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one observed engine decision. Events are passed by value —
// emitting one allocates nothing.
type Event struct {
	// Time is the simulated time the event was handled.
	Time float64
	Kind Kind
	// JobID identifies the job the event concerns (for KindPreempt,
	// the victim whose task was killed).
	JobID int
	// Task is the task index for task-scoped kinds (task start/finish,
	// preempt, filler-patch) and -1 otherwise.
	Task int
	// End is the planned finish time for task-start events — math.Inf(1)
	// for a first-wave filler reduce, whose real end is unknown until
	// the map stage completes — the patched finish time for
	// KindFillerPatch, and the job's effective deadline for
	// KindJobArrival (after any what-if SetDeadline; 0 means none).
	// Zero for all other kinds.
	End float64
	// ShuffleEnd is the shuffle/reduce phase boundary for reduce-task
	// starts (math.Inf(1) for fillers) and for KindFillerPatch, where it
	// is mapStageEnd + firstShuffle (§III-B). Zero otherwise.
	ShuffleEnd float64
}

// Counters are the run-level totals delivered to Sink.RunEnd once a
// replay completes. The engine maintains them with plain integer
// arithmetic whether or not a sink is attached.
type Counters struct {
	// Events is the number of engine events processed (queue pops).
	Events uint64
	// HeapHighWater is the peak pending-event population of the event
	// queue across all its lanes and reservations (DESIGN.md §9), not of
	// its heap alone: un-arrived jobs count from the start, so it is at
	// least the job count.
	HeapHighWater int
	// Preemptions counts map tasks killed under PreemptMapTasks.
	Preemptions uint64
	// FillerPatches counts first-wave filler reduces whose departure
	// was patched at map-stage completion (§III-B shuffle modeling).
	FillerPatches uint64
	// MapSlotAllocs / ReduceSlotAllocs count slot grants.
	MapSlotAllocs    uint64
	ReduceSlotAllocs uint64
	// Jobs and Makespan summarize the replay outcome.
	Jobs     int
	Makespan float64
}

// Sink receives the engine's event stream. Implementations need not be
// safe for concurrent use: the engine calls Event and RunEnd from a
// single goroutine, and parallel runtimes give every engine its own
// sink (see SinkFactory). Event is called once per event, a block's
// worth in a row (see the package comment) — implementations should
// avoid per-event allocation where practical, and implement BatchSink
// if the per-call cost matters.
type Sink interface {
	// Event delivers one engine event, in handled order.
	Event(ev Event)
	// RunEnd delivers the run-level counters after the last event.
	RunEnd(c Counters)
}

// SinkFactory builds one sink per engine. Parallel entry points
// (CapacitySweep, ReplayBatchCfg) call it once per concurrent run from the
// worker goroutine, so the factory itself must be safe for concurrent
// calls, while the sinks it returns need not be.
type SinkFactory func() Sink

// RecordSink captures the full event stream and final counters in
// memory — the reference sink for tests, golden files, and ad-hoc
// analysis.
type RecordSink struct {
	Events   []Event
	Counters Counters
	// Ended is set once RunEnd has been delivered.
	Ended bool
}

// Event appends ev to the record.
func (r *RecordSink) Event(ev Event) { r.Events = append(r.Events, ev) }

// RunEnd stores the run counters.
func (r *RecordSink) RunEnd(c Counters) { r.Counters, r.Ended = c, true }

// DepthSampler is kept only because the frozen benchmark harness
// (benchmark/wrap.go) names it. Nothing else implements it and nothing
// calls it: the engine has no queue-depth channel. It goes with
// ROADMAP item 1e, as the des package's EventQueue shim does.
type DepthSampler interface {
	SampleDepth(now float64, depth int)
}

// BatchSink is an optional Sink extension for sinks on the hot path: the
// engine buffers its events in a block (DESIGN.md §8) and hands a sink
// that implements BatchSink the whole block in one Events call instead
// of one Event call per element. evs is in handled order, continues
// exactly where the previous block ended, and is valid only during the
// call — the engine overwrites it afterwards, so a sink that keeps
// events copies them. A BatchSink's Event must be the one-element case
// of Events: both may be called on one sink, and the stream is their
// concatenation in call order.
type BatchSink interface {
	Events(evs []Event)
}

// Feed is a Sink with its block-taking side resolved once — by the
// engine when it is armed, by Tee when it is built. The zero Feed has
// no sink and must not be fed.
type Feed struct {
	sink  Sink
	batch BatchSink // sink's BatchSink side, nil when it has none
}

// FeedOf resolves s, which may be nil.
func FeedOf(s Sink) Feed {
	b, _ := s.(BatchSink)
	return Feed{sink: s, batch: b}
}

// Events delivers a block: in one call to a BatchSink, as a loop of
// Event calls to any other sink, which therefore sees exactly the
// per-event sequence. This is the only place events reach a sink
// through the plain Sink interface.
func (f Feed) Events(evs []Event) {
	if f.batch != nil {
		f.batch.Events(evs)
		return
	}
	for i := range evs {
		f.sink.Event(evs[i])
	}
}

// teeSink fans one engine's stream out to several sinks in order.
type teeSink struct{ feeds []Feed }

func (t teeSink) Event(ev Event) {
	for _, f := range t.feeds {
		f.sink.Event(ev)
	}
}

// Events forwards a block member by member: each sees the whole block
// before the next sees any of it, which no sink can tell from
// per-event interleaving (sinks do not observe one another).
func (t teeSink) Events(evs []Event) {
	for _, f := range t.feeds {
		f.Events(evs)
	}
}

func (t teeSink) RunEnd(c Counters) {
	for _, f := range t.feeds {
		f.sink.RunEnd(c)
	}
}

// Tee combines sinks into one that forwards every event, block and
// RunEnd to each, in argument order. Nil sinks are skipped; Tee()
// returns nil. A member that is itself a Tee is replaced by its own
// members, in place, so composing in steps — Tee(Tee(a, b), c) — costs
// one fan-out over a, b, c, not a nested dispatch. BatchSink sides are
// resolved once here, not per call.
func Tee(sinks ...Sink) Sink {
	live := make([]Feed, 0, len(sinks))
	for _, s := range sinks {
		switch t := s.(type) {
		case nil:
		case teeSink:
			live = append(live, t.feeds...)
		default:
			live = append(live, FeedOf(s))
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0].sink
	}
	return teeSink{feeds: live}
}
