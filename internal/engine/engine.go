// Package engine implements the SimMR Simulator Engine (§III-B): a
// discrete-event simulator that replays job traces while emulating the
// Hadoop job master's map/reduce slot-allocation decisions across
// multiple concurrent jobs.
//
// Faithful to the paper:
//
//   - The engine simulates at task level only — no TaskTrackers, disks,
//     or network packets. Task latencies come from the trace's job
//     templates.
//   - It handles the paper's seven event types: job arrival/departure,
//     map/reduce task arrival/departure, and map-stage completion. Five
//     wait in a priority queue; a task's arrival is due the instant its
//     slot is granted, so the granting round handles it on the spot.
//   - It talks to the scheduling policy through the narrow two-function
//     interface ChooseNextMapTask / ChooseNextReduceTask.
//   - Reduce tasks start once minMapPercentCompleted of the job's maps
//     have finished. A first-wave reduce occupies its slot through a
//     "filler" shuffle of unbounded duration; when the map stage
//     completes, the filler's departure is scheduled at
//     mapStageEnd + firstShuffle + reducePhase, which models the
//     overlapped shuffle exactly (§III-B).
//   - Tasks are never preempted once a slot is allocated (the cause of
//     the Figure 7(a) "bump" the paper discusses).
package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"simmr/internal/des"
	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// SemanticsVersion numbers the engine's observable simulation
// semantics: two binaries with the same SemanticsVersion MUST produce
// byte-identical Results for every (trace, config, policy) input. It
// is folded into every replay-result cache key (internal/rcache), so a
// persistent -cache-dir populated by an older binary stops serving
// entries the moment the engine's behavior changes. Bump it with ANY
// outcome-affecting engine change — a shuffle-model fix, an event-order
// tweak, a float reassociation — even ones that feel like pure bug
// fixes; the golden-key test in rcache pins the consequence so the
// bump is a conscious, reviewable decision.
const SemanticsVersion = 1

// Config parameterizes a replay run.
type Config struct {
	// MapSlots and ReduceSlots are the cluster-wide slot counts
	// (the paper's testbed: 64 and 64).
	MapSlots    int
	ReduceSlots int

	// MinMapPercentCompleted is the fraction of a job's map tasks that
	// must complete before its reduce tasks are scheduled (the
	// user-settable parameter of §III-B). At least one map must always
	// complete first. Default 0.05 mirrors Hadoop's slowstart.
	MinMapPercentCompleted float64

	// NoShuffleModel is an ablation switch: model reduce tasks the way
	// Mumak does — reduce runtime = wait-for-all-maps + reduce phase,
	// with no shuffle at all. Used to quantify how much of SimMR's
	// accuracy comes from its shuffle modeling (§IV-A discussion).
	NoShuffleModel bool

	// NoFirstShuffleSpecialCase is a second ablation switch: treat every
	// shuffle as "typical" (duration counted from the reduce's own
	// start), ignoring the overlapped first-wave measurement. Isolates
	// the value of the paper's non-overlapping first-shuffle treatment.
	NoFirstShuffleSpecialCase bool

	// PreemptMapTasks extends the paper: when a job with an earlier
	// deadline arrives and no map slots are free, running map tasks of
	// later-deadline jobs are killed (and later re-executed from
	// scratch, replaying their recorded durations). The paper attributes
	// the Figure 7(a) "bump" to the absence of exactly this mechanism
	// ("the scheduler does not pre-empt tasks themselves"); enabling it
	// lets that explanation be tested. Only meaningful with
	// deadline-driven policies.
	PreemptMapTasks bool

	// Sink, when non-nil, receives every engine event (obs.Kind
	// taxonomy) in handled order — a block at a time, complete whenever
	// the engine is not inside Run or RunEvents (the delivery contract,
	// DESIGN.md §8) — plus the run-level counters at the end of Run. The
	// stream is the one record of per-task history: a Result holds none.
	// Every emission sits behind a single nil check, so a nil Sink costs
	// nothing on the hot path (TestReplayAllocBudget's bare case). Sinks
	// need not be safe for concurrent use — each engine must own its own
	// instance; parallel runtimes build them via obs.SinkFactory.
	Sink obs.Sink
}

// DefaultConfig returns the paper's validation configuration: 64 map
// and 64 reduce slots.
func DefaultConfig() Config {
	return Config{MapSlots: 64, ReduceSlots: 64, MinMapPercentCompleted: 0.05}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.MapSlots <= 0:
		return fmt.Errorf("engine: MapSlots = %d", c.MapSlots)
	case c.ReduceSlots < 0:
		return fmt.Errorf("engine: ReduceSlots = %d", c.ReduceSlots)
	case c.MinMapPercentCompleted < 0 || c.MinMapPercentCompleted > 1:
		return fmt.Errorf("engine: MinMapPercentCompleted = %v", c.MinMapPercentCompleted)
	}
	return nil
}

// The event types the queue holds: five of §III-B's seven. The other
// two, map- and reduce-task arrival, are due the instant a slot is
// granted and are handled by the round that grants it (allocate).
const (
	evJobArrival = iota
	evJobDeparture
	evMapTaskDeparture
	evReduceTaskDeparture
	evMapStageComplete
)

// JobOutcome reports one replayed job. Per-task history — when each
// task started, finished, was killed — is not here: it is the event
// stream (Config.Sink; obs.TimelineSink rebuilds the task spans).
type JobOutcome struct {
	ID          int
	Name        string
	Arrival     float64
	Finish      float64
	Deadline    float64
	MapStageEnd float64
	Events      int // engine events handled for this job
}

// CompletionTime returns finish − arrival.
func (o *JobOutcome) CompletionTime() float64 { return o.Finish - o.Arrival }

// ExceededDeadline reports whether the job missed its deadline.
func (o *JobOutcome) ExceededDeadline() bool {
	return o.Deadline > 0 && o.Finish > o.Deadline
}

// Result is the outcome of one replay. Jobs is where the engine keeps
// its per-job outcomes while it runs (DESIGN.md §5, "Lifetime"): the
// array is bound when the replay starts, each job's entry is written
// from its arrival to its departure, and the finished Result is that
// array — nothing is copied out at the end. A totals-only replay
// (Pool.RunSplit) binds none, and its Jobs is nil: the other fields are
// a full replay's. A Result returned by Run
// (and by everything built on it: Pool.Run, simmr.Replay,
// ReplayBatchCfg) is owned by the caller and never written by the
// engine again. A Result handed to a Pool.FoldTrail callback is the engine's
// own scratch: it is valid only until the callback returns, and nothing
// reached through Jobs may be retained.
//
// PeakMapSlots and PeakReduceSlots are the most slots of each kind the
// replay ever held at once. A peak below the cluster's slot count proves
// that the replay's answer does not depend on that count past the peak
// (Answers).
type Result struct {
	Jobs            []JobOutcome
	Events          uint64
	Makespan        float64
	PeakMapSlots    int
	PeakReduceSlots int
}

// Answers reports whether res, the Result of a replay under ran and
// policy, is also the Result of the same trace replayed under want —
// every field of it, peaks included (DESIGN.md §5, "Capacity above the
// peak"). want may differ from ran in its slot counts only, and each
// count must be ran's or, when ran's replay left a slot of that kind
// free throughout, any count above the peak. A policy implementing
// sched.ArrivalAware is refused: the slot totals are handed to it, and
// MinEDF sizes jobs by them. So is PreemptMapTasks, which counts free
// slots when a job arrives.
func Answers(res *Result, ran, want Config, policy sched.Policy) bool {
	if _, aware := policy.(sched.ArrivalAware); aware || ran.PreemptMapTasks {
		return false
	}
	// The rest of the two configs must match; a sink only observes.
	a, b := ran, want
	a.MapSlots, a.ReduceSlots, a.Sink, b.Sink = b.MapSlots, b.ReduceSlots, nil, nil
	return a == b &&
		holds(res.PeakMapSlots, ran.MapSlots, want.MapSlots) &&
		holds(res.PeakReduceSlots, ran.ReduceSlots, want.ReduceSlots)
}

// holds reports whether a cluster of want slots of a kind takes the
// rounds one of ran slots took while holding at most peak at once: want
// is ran, or ran left a slot free throughout and want is above the peak.
func holds(peak, ran, want int) bool { return want == ran || (peak < ran && want > peak) }

// fillerReduce tracks a first-wave reduce waiting for its job's map
// stage to complete: its departure holds a reserved place in the event
// order (seq) and enters the queue once the map stage's end gives it a
// time. Fillers live in one engine-level arena (Engine.fillers), linked
// per job in start order: every filler holds a reduce slot, so the arena
// never outgrows Config.ReduceSlots whichever jobs the slots serve.
type fillerReduce struct {
	seq          uint64 // the departure's reserved seq
	firstShuffle float64
	reducePhase  float64
	task         int   // the reduce's task index, as its start event named it
	next         int32 // next filler of the job, or next free entry; -1 ends the list
}

// simJob is the engine-local mutable replay state of one live job: it
// is armed from the trace by the job's arrival event and recycled by the
// compaction that follows its departure (DESIGN.md §5, "Lifetime"). All
// mutable state lives here or in the Result (never on trace.Job), which
// is what lets a single immutable trace be shared read-only across any
// number of concurrent engines.
type simJob struct {
	info sched.JobInfo   // scheduler-visible state, engine-owned
	tpl  *trace.Template // read-only view into the shared trace
	out  *JobOutcome     // the job's entry in the run's Result.Jobs, or Engine.unkept
	pos  int             // index of that entry: the job's trace position

	nextMap      int
	nextReduce   int
	firstWave    int // count of first-wave reduces started
	typicalWave  int // count of typical-wave reduces started
	slowstartMin int
	seq          int // arrival order; tie-break for the preemption index
	events       int // engine events handled for the job so far

	// retryMaps holds task indices killed by preemption, re-executed
	// before fresh indices are drawn.
	retryMaps []int
	// runningMaps tracks in-flight map departures by task index, so
	// preemption can cancel them. Allocated only under PreemptMapTasks.
	runningMaps map[int]runningMap

	fillerHead, fillerTail int32 // the job's fillers in Engine.fillers; -1 when none
	mapStageEvent          bool  // map-stage-complete event already scheduled
	departed               bool
}

// runningMap names the pending departure of a running map task: the seq
// the queue cancels it by, and when it is due.
type runningMap struct {
	seq uint64
	end float64
}

// runState tracks where an engine is in its arm → run → seal lifecycle.
type runState uint8

const (
	// runIdle: armed by New/Reset; Run has not started.
	runIdle runState = iota
	// runStarted: arrivals pushed, replay in flight — possibly paused
	// between macro-steps by RunEvents. Forked engines start here.
	runStarted
	// runDone: Run assembled its Result; only Reset re-arms.
	runDone
	// runSealed: Snapshot froze this engine as fork source; immutable
	// (concurrent forks read it) until Reset un-seals.
	runSealed
)

// Engine replays one trace. Build with New, call Run once; Reset
// re-arms a used engine for another run while retaining its warmed
// allocations (see Reset).
//
// The engine never mutates the trace or its templates, and what it
// holds per job is sized by the jobs in flight, not by the trace: a job
// has engine state from its arrival event to the compaction after its
// departure, and its outcome lives in the Result (DESIGN.md §5,
// "Lifetime"). Concurrent engines may share one trace without cloning
// or locking.
type Engine struct {
	cfg    Config
	policy sched.Policy

	clock des.Clock
	q     des.Lanes
	// arrivals is the job-arrival schedule start() preloads into q — one
	// entry per job, recycled across re-arms. Forks borrow the snapshot
	// engine's through the cloned queue and leave their own untouched, and
	// so do the segment engines of a split replay (split.go). inOrder
	// records that start found the trace in arrival order, so entry i is
	// the job at position i.
	arrivals []des.Arrival
	inOrder  bool

	// tr is the trace being replayed. A job's position — its index in
	// tr.Jobs — names its outcome in out and its entry in slotOf; indexOf
	// maps job IDs to positions and is nil when the IDs are dense (ID ==
	// position + idBase). A fork borrows its source's read-only.
	tr      *trace.Trace
	indexOf map[int]int
	idBase  int

	// The live window. slotOf[p] is the state of the job at position p
	// while it is live and nil before its arrival and after its
	// retirement; slots come from slab in chunks (pointer-stable: the
	// policy and the scheduling index hold &slot.info) and go back to
	// free, so carved — every slot there is, in address order — counts
	// the high-water of jobs live at once. out is the outcome array the run's Result will
	// carry, zero at every position not yet arrived and final from the
	// job's departure; outHi bounds the positions written. A totals-only
	// replay binds no array: every live job's outcome is written to
	// unkept, which nothing reads back. deadlines holds SetDeadline's
	// overrides for jobs still to arrive, by position.
	slotOf    []*simJob
	slab      []simJob
	free      []*simJob
	carved    []*simJob
	out       []JobOutcome
	outHi     int
	unkept    JobOutcome
	deadlines map[int]float64
	// fillers is the arena of filler reduces (see fillerReduce), fillerFree
	// the head of its free entries.
	fillers    []fillerReduce
	fillerFree int32

	// active lists the arrived jobs in arrival order — the queue the
	// paper's policy interface is handed — and slots their state, entry
	// for entry. A departure only decrements live; the job stays until
	// compactActive squeezes it out and recycles its slot, which every
	// reader that needs the exact queue does first, so the cost of a
	// departure does not grow with the queue.
	active []*sched.JobInfo
	slots  []*simJob
	live   int // arrived and not yet departed

	freeMap    int
	freeReduce int
	// peakMap and peakReduce are the most slots of each kind held at once
	// so far: the Result's peaks.
	peakMap    int
	peakReduce int
	// grants is allocate's scratch: the job IDs granted a slot in the
	// round, maps first. Empty between macro-steps — no grant is ever
	// pending at a pause — so a fork copies nothing of it.
	grants    []int
	remaining int
	state     runState
	makespan  float64 // time of the latest job departure

	// src is the sealed snapshot this engine was forked from, whose
	// arrival schedule and ID map it borrows; nil on ordinary engines.
	// snap caches this engine's own Snapshot once sealed.
	src   *Snapshot
	snap  *Snapshot
	stats ForkStats

	// Policy dispatch, resolved by setPolicy so the hot path never
	// repeats a type assertion. batch is the engine-owned scheduling
	// index (DESIGN.md §11) when the policy is a stateless built-in, and
	// nil for any other policy, which is driven through the paper's
	// two-call interface with arrive as its arrival hook. index retains
	// the last index built so pooled re-arms recycle its trees.
	// eachCompletion is batch's ReadsRunning: every task completion
	// reaches the index, not only those completionCounts names.
	batch          sched.BatchPolicy
	index          sched.BatchPolicy
	arrive         sched.ArrivalAware
	eachCompletion bool

	// preemptIdx, allocated only under PreemptMapTasks, indexes active
	// jobs by latest effective deadline (ties: earliest arrival seq)
	// with "has running map tasks" as the eligibility bit, replacing
	// preemptFor's O(active) victim rescan with an O(1) query.
	preemptIdx *sched.Tournament
	arrivalSeq int

	// sink mirrors cfg.Sink; every emission is guarded by a nil check
	// so the disabled path stays allocation- and branch-cheap. Events do
	// not go to it one by one: emit appends to block and flush hands the
	// filled part to feed, the sink with its block-taking side resolved.
	// The block is made the first time the engine is armed with a sink
	// and kept across Reset and pooling (it holds no pointers); an engine
	// that never has a sink never has one.
	sink  obs.Sink
	feed  obs.Feed
	block []obs.Event
	// Run-level observability counters, maintained unconditionally
	// (plain increments on cold paths) and delivered via sink.RunEnd.
	preemptions      uint64
	fillerPatches    uint64
	mapSlotAllocs    uint64
	reduceSlotAllocs uint64

	// scratch is the Result Pool.FoldTrail runs into and lends to its
	// callback; its Jobs capacity is recycled across folds and emptied
	// after each, so an idle engine pins no outcome.
	scratch Result
}

// New builds an engine for the trace and policy. The trace is validated
// and never modified — neither here nor during Run — so callers may
// share one trace across concurrent engines.
func New(cfg Config, tr *trace.Trace, policy sched.Policy) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(cfg, tr, policy); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-initializes the engine in place for a fresh run under a new
// (or identical) configuration, trace, and policy — the engine-reuse
// contract behind Pool. Everything observable is cleared: the clock,
// the event queue's counters and pending events, the live jobs, the
// active set, and the run counters; a reset engine produces
// byte-identical Results to a newly built one. Reset checks the trace
// and records it — job state is armed by the arrival events, so nothing
// is written per job here. What is *retained* is warmed capacity: the
// event queue's lanes, the job slots with their retry
// scratch, the filler arena, the by-position table, the active slice and
// the ID-dispatch map, so steady-state reuse allocates only the per-run
// outputs (Result, outcomes) instead of rebuilding the engine's
// working set from scratch. Pool.Put decides which engines are worth
// keeping that way.
func (e *Engine) Reset(cfg Config, tr *trace.Trace, policy sched.Policy) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if policy == nil {
		return fmt.Errorf("engine: nil policy")
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	// Normalized traces carry dense IDs 0..n-1, and the suffix a segment
	// engine replays (split.go) k..n-1: consecutive from the first job's.
	// Dispatch on the position then, avoiding the map (and its per-run
	// fill).
	base, dense := tr.Jobs[0].ID, true
	for i, j := range tr.Jobs {
		dense = dense && j.ID == base+i
		if cfg.ReduceSlots == 0 && j.Template.NumReduces > 0 {
			return fmt.Errorf("engine: job %d needs reduce slots but cluster has none", j.ID)
		}
	}
	e.rearm(cfg, tr, policy, dense, base)
	e.slotOf = resized(e.slotOf, len(tr.Jobs))
	return nil
}

// rearm is Reset past its checks, for a trace whose IDs are dense from
// base when dense is set. The caller sizes slotOf to the positions the
// engine is to replay.
func (e *Engine) rearm(cfg Config, tr *trace.Trace, policy sched.Policy, dense bool, base int) {
	n := len(tr.Jobs)
	e.cfg = cfg
	e.setPolicy(policy)
	e.setSink(cfg.Sink)
	e.clock.Reset()
	e.q.Reset()
	// Reset un-seals and un-forks: whatever the previous arming left live,
	// bound or borrowed goes first. Outstanding forks of a sealed engine
	// must finish before it is Reset (they read its state concurrently);
	// the snapshot-holding side enforces that.
	e.release()
	e.tr = tr
	e.freeMap = cfg.MapSlots
	e.freeReduce = cfg.ReduceSlots
	e.peakMap, e.peakReduce = 0, 0
	e.remaining = n
	e.state = runIdle
	e.makespan = 0
	e.snap = nil
	e.stats = ForkStats{}
	e.arrivalSeq = 0
	e.resetPreemptIdx()
	e.preemptions = 0
	e.fillerPatches = 0
	e.mapSlotAllocs = 0
	e.reduceSlotAllocs = 0
	e.idBase = base
	if dense {
		e.indexOf = nil
	} else {
		if e.indexOf == nil {
			e.indexOf = make(map[int]int, n)
		}
		clear(e.indexOf)
		for i, j := range tr.Jobs {
			e.indexOf[j.ID] = i
		}
	}
}

// resized returns s with length n and every entry nil, given that every
// entry of s already is (release leaves the table that way).
func resized(s []*simJob, n int) []*simJob {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]*simJob, n)
}

// grown returns s, its entries kept, extended with nil ones to length n.
func grown(s []*simJob, n int) []*simJob {
	return append(s, make([]*simJob, max(0, n-len(s)))...)
}

// release returns the engine to holding no job: live slots go back to
// the free list, the outcome array goes to whoever holds the Result, and
// everything that points into the trace or the fork source is dropped.
// What is left is capacity. Reset, ForkInto and Pool.Put start from here.
func (e *Engine) release() {
	for _, sj := range e.slots {
		e.retire(sj)
	}
	// Every slot is free: the next run takes them in address order, so jobs
	// that arrive together sit together however the last run's departures
	// shuffled the list (DESIGN.md §5: a burst is 6 % slower otherwise).
	e.free = append(e.free[:0], e.carved...)
	slices.Reverse(e.free)
	clear(e.active)
	clear(e.slots)
	e.active, e.slots, e.live = e.active[:0], e.slots[:0], 0
	e.out, e.outHi, e.unkept = nil, 0, JobOutcome{}
	clear(e.deadlines)
	e.fillers, e.fillerFree = e.fillers[:0], -1
	e.tr = nil
	if e.src != nil {
		// The map belongs to the fork source; drop it rather than clear it.
		e.indexOf, e.src = nil, nil
	}
}

// resetPreemptIdx empties the preemption index, building it the first
// time PreemptMapTasks is on and dropping it when it is off.
func (e *Engine) resetPreemptIdx() {
	switch {
	case !e.cfg.PreemptMapTasks:
		e.preemptIdx = nil
	case e.preemptIdx == nil:
		e.preemptIdx = e.newPreemptIdx()
	default:
		e.preemptIdx.Reset()
	}
}

// setPolicy installs p and resolves how it is driven: through an empty
// scheduling index when sched has one for it, else through the paper's
// interface. Callers with live jobs (fork, SetPolicy) re-admit them.
func (e *Engine) setPolicy(p sched.Policy) {
	e.policy = p
	e.arrive = nil
	e.eachCompletion = false
	if e.batch = sched.IndexFor(p, e.index); e.batch != nil {
		e.index = e.batch
		e.eachCompletion = e.batch.ReadsRunning()
	} else {
		e.arrive, _ = p.(sched.ArrivalAware)
	}
}

// blockEvents is the capacity of an engine's observation block: how far
// a sink may trail the engine. 512 events (28 KB) amortize a delivery —
// the sinks' locks and atomic publishes, the interface hops — to
// nothing per event while a block still sits in L1.
const blockEvents = 512

// setSink installs s as the engine's sink, resolves the interfaces the
// run loop calls it through, and starts it on an empty block. nil
// detaches (Pool.Put).
func (e *Engine) setSink(s obs.Sink) {
	e.cfg.Sink = s
	e.sink = s
	e.feed = obs.FeedOf(s)
	if s != nil && e.block == nil {
		e.block = make([]obs.Event, 0, blockEvents)
	}
	e.block = e.block[:0]
}

// newPreemptIdx builds the preemption victim tournament: active jobs
// ordered by latest effective deadline (ties: earliest arrival seq) —
// both fixed once a job has arrived. A job contends while it has running
// map tasks (preemptible); the handlers that change that say so.
func (e *Engine) newPreemptIdx() *sched.Tournament {
	return sched.NewTournament(sched.LaneAux, sched.Order{
		Better: func(a, b *sched.JobInfo) bool {
			if da, db := a.EffectiveDeadline(), b.EffectiveDeadline(); da != db {
				return da > db // latest deadline wins the victim tournament
			}
			return e.jobByID(a.ID).seq < e.jobByID(b.ID).seq
		},
		Static: true,
	})
}

// preemptible reports whether the job has a running map task to kill.
func (sj *simJob) preemptible() bool { return len(sj.runningMaps) > 0 }

// jobIndex maps the ID of a job of this replay to its position.
func (e *Engine) jobIndex(id int) int {
	if e.indexOf == nil {
		return id - e.idBase
	}
	return e.indexOf[id]
}

// jobByID resolves a live job's ID to its state.
func (e *Engine) jobByID(id int) *simJob { return e.slotOf[e.jobIndex(id)] }

// jobLookup is jobIndex for IDs that may not exist (mutation APIs).
func (e *Engine) jobLookup(id int) (pos int, ok bool) {
	if e.indexOf == nil {
		pos = id - e.idBase
		return pos, pos >= 0 && pos < len(e.tr.Jobs)
	}
	pos, ok = e.indexOf[id]
	return pos, ok
}

// slotChunk is the least number of job slots carved at once; each
// further chunk doubles the slots the engine owns.
const slotChunk = 16

// newSlot hands out a job slot: a recycled one, retry scratch and all,
// before the slab grows.
func (e *Engine) newSlot() *simJob {
	if n := len(e.free); n > 0 {
		sj := e.free[n-1]
		e.free = e.free[:n-1]
		return sj
	}
	if len(e.slab) == 0 {
		e.slab = make([]simJob, max(slotChunk, len(e.carved)))
	}
	sj := &e.slab[0]
	e.slab = e.slab[1:]
	e.carved = append(e.carved, sj)
	return sj
}

// arm builds the state of the job at position p in a slot and starts
// its outcome — the first half of handling its arrival event.
func (e *Engine) arm(p int) *simJob {
	sj := e.newSlot()
	j := e.tr.Jobs[p]
	deadline := j.Deadline
	if len(e.deadlines) > 0 {
		if d, ok := e.deadlines[p]; ok {
			deadline = d
		}
	}
	sj.info = sched.JobInfo{
		ID: j.ID, Name: j.Name,
		Arrival: j.Arrival, Deadline: deadline,
		NumMaps: j.Template.NumMaps, NumReduces: j.Template.NumReduces,
		Profile: j.Template.ProfileRef(),
	}
	sj.tpl = j.Template
	sj.out = &e.unkept
	if e.out != nil {
		sj.out = &e.out[p]
	}
	*sj.out = JobOutcome{
		ID: j.ID, Name: j.Name,
		Arrival: j.Arrival, Deadline: deadline,
	}
	sj.pos = p
	sj.nextMap = 0
	sj.nextReduce = 0
	sj.firstWave = 0
	sj.typicalWave = 0
	sj.slowstartMin = max(1, int(float64(j.Template.NumMaps)*e.cfg.MinMapPercentCompleted+0.9999))
	sj.seq = e.arrivalSeq
	sj.events = 0
	sj.retryMaps = sj.retryMaps[:0]
	sj.fillerHead, sj.fillerTail = -1, -1
	sj.mapStageEvent = false
	sj.departed = false
	switch {
	case !e.cfg.PreemptMapTasks:
		sj.runningMaps = nil
	case sj.runningMaps == nil:
		sj.runningMaps = make(map[int]runningMap)
	default:
		clear(sj.runningMaps)
	}
	e.arrivalSeq++
	e.slotOf[p] = sj
	if p >= e.outHi {
		e.outHi = p + 1
	}
	return sj
}

// arrived reports whether the arrival event of the job at position p has
// been handled: the job is live, or departed and its outcome final.
func (e *Engine) arrived(p int) bool { return e.slotOf[p] != nil || e.out[p].Events > 0 }

// retire recycles the slot of a job no one refers to any more, cleared
// of what it held of the trace and the Result.
func (e *Engine) retire(sj *simJob) {
	e.slotOf[sj.pos] = nil
	sj.info.Name, sj.info.Profile, sj.tpl, sj.out = "", nil, nil, nil
	e.free = append(e.free, sj)
}

// start preloads the job arrivals as the queue's schedule and binds the
// outcome array — buf's storage when it can hold the trace's jobs, none
// for a totals-only replay — moving the engine from armed to in-flight.
// Arrivals fire in (time, trace position) order; a trace already in
// arrival order — every Normalized one — is taken as is. Idempotent
// while the run is in flight (the array bound first stays); rejected once
// the run finished (the old "Run called twice" protection) or the engine
// was sealed by Snapshot.
func (e *Engine) start(buf []JobOutcome, totals bool) error {
	switch e.state {
	case runIdle:
		e.state = runStarted
		n := len(e.tr.Jobs)
		s, sorted := slices.Grow(e.arrivals[:0], n), true
		for i, j := range e.tr.Jobs {
			sorted = sorted && (i == 0 || s[i-1].Time <= j.Arrival)
			s = append(s, des.Arrival{Time: j.Arrival, JobID: j.ID})
		}
		if !sorted {
			slices.SortStableFunc(s, func(a, b des.Arrival) int { return cmp.Compare(a.Time, b.Time) })
		}
		e.arrivals, e.inOrder = s, sorted
		e.q.Preload(evJobArrival, s)
		switch {
		case totals:
		case cap(buf) >= n:
			e.out = buf[:n]
			clear(e.out)
		default:
			e.out = make([]JobOutcome, n)
		}
		return nil
	case runStarted:
		return nil
	case runDone:
		return fmt.Errorf("engine: Run called twice without Reset")
	default:
		return fmt.Errorf("engine: engine is sealed by Snapshot; Reset before running again")
	}
}

// step executes one macro-step: pop the earliest event, drain every
// event scheduled for that same instant, then run one allocation round,
// which starts the tasks it grants slots to (events → round → starts).
// Same-instant draining keeps simultaneous arrivals and departures all
// visible to the policy before any slot is handed out (otherwise the
// first of two same-time arrivals would grab every slot
// unconditionally). Macro-step boundaries are the only pause — and
// therefore the only snapshot/fork — points: between steps no job
// holds a half-processed event and no granted slot waits for its task.
func (e *Engine) step() error {
	var ev des.Record
	if !e.q.Pop(&ev) {
		// Nothing is queued. Filler reduces may still hold reservations:
		// the map stages they wait for will never complete (the policy
		// stopped granting map slots), so they run out their unbounded
		// duration and depart at Infinity, in the order they started.
		e.placeStalledFillers()
		if !e.q.Pop(&ev) {
			return fmt.Errorf("engine: deadlock: %d jobs unfinished with empty event queue", e.remaining)
		}
	}
	e.clock.AdvanceTo(ev.Time)
	for {
		if err := e.handle(&ev); err != nil {
			return err
		}
		if !e.q.PopAt(e.clock.Now(), &ev) {
			break
		}
	}
	e.allocate()
	return nil
}

// Run replays the trace to completion and assembles the Result. Each
// New or Reset arms exactly one full replay; running twice without a
// Reset in between would replay on dirty state and is rejected. Run
// after RunEvents continues the paused replay; Run on a fork continues
// from the branch point.
func (e *Engine) Run() (*Result, error) {
	res := new(Result)
	if err := e.RunInto(res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run writing the outcome into a caller-owned Result: every
// field is overwritten, and a replay that starts here keeps its outcomes
// in res.Jobs' backing array when that is large enough, so a caller that
// folds each replay into a few numbers allocates nothing per run. (A
// replay already in flight — paused by RunEvents, or a fork — bound its
// array when it started and returns that one.) On error res holds no
// jobs.
func (e *Engine) RunInto(res *Result) error {
	*res = Result{Jobs: res.Jobs[:0]}
	if err := e.start(res.Jobs, false); err != nil {
		return err
	}
	if err := e.stepUntil(math.MaxUint64); err != nil {
		return err
	}
	e.state = runDone
	res.Jobs = e.out
	res.Events = e.q.Fired()
	res.Makespan = e.makespan
	res.PeakMapSlots, res.PeakReduceSlots = e.peakMap, e.peakReduce
	if e.sink != nil {
		e.sink.RunEnd(e.counters(res))
	}
	return nil
}

// RunEvents advances the replay until at least n total events have
// fired (as counted by the queue's Fired counter — the same index
// Result.Events reports) or the replay completes, then pauses at a
// macro-step boundary. It reports whether the replay is complete.
// RunEvents(0) starts the run — arrivals pushed, nothing fired — so a
// t=0 snapshot is well-defined. A paused engine accepts the mutation
// APIs (SetDeadline, SetPolicy), further RunEvents calls,
// Snapshot, or a finishing Run; note Run, not RunEvents, assembles the
// Result and emits the sink's RunEnd. The sink has seen every event up
// to the pause when RunEvents returns.
func (e *Engine) RunEvents(n uint64) (bool, error) {
	if err := e.start(nil, false); err != nil {
		return false, err
	}
	if err := e.stepUntil(n); err != nil {
		return false, err
	}
	return e.remaining == 0, nil
}

// stepUntil is the step loop both Run and RunEvents drive: macro-steps
// until the replay completes, n events have fired, or a step fails. It
// is also where the delivery contract is kept — the block is flushed on
// every way out, so outside this loop the sink is never behind the
// engine, a failed run included.
func (e *Engine) stepUntil(n uint64) error {
	var err error
	for err == nil && e.remaining > 0 && e.q.Fired() < n {
		err = e.step()
	}
	e.flush()
	return err
}

// Now returns the current simulated time — the pause point's timestamp
// on an engine stopped by RunEvents.
func (e *Engine) Now() float64 { return e.clock.Now() }

// counters assembles the run-level observability totals.
func (e *Engine) counters(res *Result) obs.Counters {
	return obs.Counters{
		Events:           e.q.Fired(),
		HeapHighWater:    e.q.HighWater(),
		Preemptions:      e.preemptions,
		FillerPatches:    e.fillerPatches,
		MapSlotAllocs:    e.mapSlotAllocs,
		ReduceSlotAllocs: e.reduceSlotAllocs,
		Jobs:             len(e.slotOf), // every job of the replay: a totals-only Result has no Jobs to count
		Makespan:         res.Makespan,
	}
}

// emit records one observability event in the block, flushing it when
// that fills it; callers must have checked e.sink != nil (kept out of
// this function so the nil test inlines at each cold call site without
// a call in the disabled case). This store is the whole per-event cost
// of observation inside the engine.
func (e *Engine) emit(kind obs.Kind, jobID, task int, end, shuffleEnd float64) {
	// Field by field into the slot: building the event as a value and
	// appending it goes through the stack, and reloading it from there
	// in 16-byte moves right after the narrow stores stalls on store
	// forwarding — most of what an emission cost. flush keeps len < cap.
	n := len(e.block)
	e.block = e.block[:n+1]
	ev := &e.block[n]
	ev.Time, ev.Kind = e.clock.Now(), kind
	ev.JobID, ev.Task = jobID, task
	ev.End, ev.ShuffleEnd = end, shuffleEnd
	if n+1 == cap(e.block) {
		e.flush()
	}
}

// flush hands the filled part of the block to the sink and empties it.
// It is called when the block is full and on every exit of the step
// loop (stepUntil) — nowhere else; between those points a sink trails
// the engine by less than one block. With nothing buffered (and so with
// no sink) it does nothing.
func (e *Engine) flush() {
	if len(e.block) == 0 {
		return
	}
	e.feed.Events(e.block)
	e.block = e.block[:0]
}

// handle dispatches one event to its handler; a job's arrival event
// arms its state first.
func (e *Engine) handle(ev *des.Record) error {
	var sj *simJob
	if p := e.jobIndex(ev.JobID); ev.Type == evJobArrival {
		sj = e.arm(p)
	} else {
		sj = e.slotOf[p]
	}
	sj.events++
	switch ev.Type {
	case evJobArrival:
		e.onJobArrival(sj)
	case evMapTaskDeparture:
		e.onMapTaskDeparture(sj, int(ev.Task))
	case evMapStageComplete:
		e.onMapStageComplete(sj)
	case evReduceTaskDeparture:
		e.onReduceTaskDeparture(sj, int(ev.Task))
	case evJobDeparture:
		e.onJobDeparture(sj)
	default:
		return fmt.Errorf("engine: unknown event type %d", ev.Type)
	}
	return nil
}

// allocate is the slot-allocation round that ends every macro-step:
// while free slots remain and the policy nominates jobs, grant them —
// maps first, then reduces — and then start each granted task, in grant
// order. A task's arrival (the paper's map- and reduce-task arrival
// events) is due the instant its slot is granted, after everything else
// due then — the step's drain has emptied the instant — so it is handled
// here, not queued: it counts as one event fired and one event of its
// job, and the observation stream shows the round's slot allocations,
// then its task starts. The scheduling index hands out all free slots in
// one call per task kind and the paper's interface takes one call per
// slot; the two produce identical grants (the differential suite replays
// every policy on both and compares outcomes and observability streams
// byte for byte), and from the grants on there is one path.
func (e *Engine) allocate() {
	g := e.grants[:0]
	var maps int
	if e.batch != nil {
		// The index never reads the queue; just keep departed entries
		// from outnumbering live ones. It increments ScheduledMaps /
		// ScheduledReduces per grant itself (the BatchPolicy contract) and
		// lends the granted IDs until its next call.
		if len(e.active) > 2*e.live+16 {
			e.compactActive()
		}
		if e.freeMap > 0 {
			g = append(g, e.batch.AssignMapSlots(e.active, e.freeMap)...)
		}
		maps = len(g)
		if e.freeReduce > 0 {
			g = append(g, e.batch.AssignReduceSlots(e.active, e.freeReduce)...)
		}
	} else {
		e.compactActive()
		for n := e.freeMap; n > 0; n-- {
			idx := e.policy.ChooseNextMapTask(e.active)
			if idx < 0 {
				break
			}
			e.active[idx].ScheduledMaps++
			g = append(g, e.active[idx].ID)
		}
		maps = len(g)
		for n := e.freeReduce; n > 0; n-- {
			idx := e.policy.ChooseNextReduceTask(e.active)
			if idx < 0 {
				break
			}
			e.active[idx].ScheduledReduces++
			g = append(g, e.active[idx].ID)
		}
	}
	e.grants = g
	if len(g) == 0 {
		return
	}
	reduces := len(g) - maps
	e.freeMap -= maps
	e.freeReduce -= reduces
	// Slots are taken only here, so a round that grants is where a peak
	// can rise.
	e.peakMap = max(e.peakMap, e.cfg.MapSlots-e.freeMap)
	e.peakReduce = max(e.peakReduce, e.cfg.ReduceSlots-e.freeReduce)
	e.mapSlotAllocs += uint64(maps)
	e.reduceSlotAllocs += uint64(reduces)
	if e.sink != nil {
		for _, id := range g[:maps] {
			e.emit(obs.KindMapSlotAlloc, id, -1, 0, 0)
		}
		for _, id := range g[maps:] {
			e.emit(obs.KindReduceSlotAlloc, id, -1, 0, 0)
		}
	}
	e.q.Count(len(g))
	for _, id := range g[:maps] {
		sj := e.jobByID(id)
		sj.events++
		e.onMapTaskArrival(sj)
	}
	for _, id := range g[maps:] {
		sj := e.jobByID(id)
		sj.events++
		e.onReduceTaskArrival(sj)
	}
}

func (e *Engine) onJobArrival(sj *simJob) {
	e.active = append(e.active, &sj.info)
	e.slots = append(e.slots, sj)
	e.live++
	if e.sink != nil {
		e.emit(obs.KindJobArrival, sj.info.ID, -1, sj.info.Deadline, 0)
	}
	if e.batch != nil {
		e.batch.OnJobAdmit(&sj.info, e.cfg.MapSlots, e.cfg.ReduceSlots)
	} else if e.arrive != nil {
		e.arrive.OnJobArrival(&sj.info, e.cfg.MapSlots, e.cfg.ReduceSlots)
	}
	if e.preemptIdx != nil {
		e.preemptIdx.Add(&sj.info, sj.preemptible())
	}
	if e.cfg.PreemptMapTasks {
		e.preemptFor(sj)
	}
}

// preemptFor frees map slots for a newly arrived deadline job by killing
// running map tasks of strictly later-deadline jobs, latest deadline
// first. Killed tasks return to their job's retry queue and re-execute
// from scratch with their recorded durations.
func (e *Engine) preemptFor(sj *simJob) {
	if sj.info.Deadline <= 0 {
		return
	}
	want := sj.info.PendingMaps()
	if sj.info.WantedMaps > 0 && sj.info.WantedMaps < want {
		want = sj.info.WantedMaps
	}
	for e.freeMap < want {
		victim := e.latestDeadlineVictim(sj.info.Deadline)
		if victim == nil || !e.preemptVictim(victim) {
			return
		}
	}
}

// preemptVictim kills the victim's running map with the latest departure
// (the one with the most remaining work under FIFO duration replay) —
// among maps due at the same time the most recently scheduled, so the
// choice never follows map iteration order — returning its task index to
// the victim's retry queue. Reports whether a task was actually killed.
func (e *Engine) preemptVictim(victim *simJob) bool {
	killTask := -1
	var kill runningMap
	for task, m := range victim.runningMaps {
		if killTask < 0 || m.end > kill.end || (m.end == kill.end && m.seq > kill.seq) {
			killTask, kill = task, m
		}
	}
	if killTask < 0 {
		return false
	}
	if !e.q.Remove(kill.seq) {
		panic("engine: running map has no pending departure")
	}
	delete(victim.runningMaps, killTask)
	victim.retryMaps = append(victim.retryMaps, killTask)
	victim.info.ScheduledMaps--
	e.preemptions++
	e.freeMap++
	e.preemptIdx.Fix(&victim.info, victim.preemptible())
	if e.batch != nil {
		e.batch.OnJobUpdate(&victim.info)
	}
	if e.sink != nil {
		e.emit(obs.KindPreempt, victim.info.ID, killTask, 0, 0)
		e.emit(obs.KindMapSlotRelease, victim.info.ID, killTask, 0, 0)
	}
	return true
}

// latestDeadlineVictim returns the running job with the latest effective
// deadline strictly later than `than`, or nil. The preemption index
// maximizes (effective deadline, earliest arrival) over jobs with
// running maps, so one winner query plus the strictly-later check
// replaces the old O(active) rescan per kill; the winner is the same
// job the scan would have picked (no-deadline jobs carry +Inf and so
// still win outright, ties resolve to the earliest-arrived victim).
func (e *Engine) latestDeadlineVictim(than float64) *simJob {
	info := e.preemptIdx.Best(0)
	if info == nil || info.EffectiveDeadline() <= than {
		return nil
	}
	return e.jobByID(info.ID)
}

func (e *Engine) onMapTaskArrival(sj *simJob) {
	now := e.clock.Now()
	var i int
	if n := len(sj.retryMaps); n > 0 {
		i = sj.retryMaps[n-1]
		sj.retryMaps = sj.retryMaps[:n-1]
	} else {
		i = sj.nextMap
		sj.nextMap++
	}
	dur := sj.tpl.MapDuration(i)
	seq := e.q.Push(now+dur, evMapTaskDeparture, sj.info.ID, i)
	if e.cfg.PreemptMapTasks {
		sj.runningMaps[i] = runningMap{seq: seq, end: now + dur}
		e.preemptIdx.Fix(&sj.info, true) // now a preemption candidate
	}
	if e.sink != nil {
		e.emit(obs.KindMapTaskStart, sj.info.ID, i, now+dur, 0)
	}
}

func (e *Engine) onMapTaskDeparture(sj *simJob, task int) {
	if e.cfg.PreemptMapTasks {
		delete(sj.runningMaps, task)
	}
	sj.info.CompletedMaps++
	e.freeMap++
	if e.sink != nil {
		e.emit(obs.KindMapTaskFinish, sj.info.ID, task, 0, 0)
		e.emit(obs.KindMapSlotRelease, sj.info.ID, task, 0, 0)
	}
	opened := false
	if !sj.info.ReduceReady && sj.info.CompletedMaps >= sj.slowstartMin {
		sj.info.ReduceReady, opened = true, true
	}
	if e.batch != nil && (opened || e.completionCounts(sj)) {
		e.batch.OnJobUpdate(&sj.info)
	}
	if e.preemptIdx != nil {
		e.preemptIdx.Fix(&sj.info, sj.preemptible()) // one fewer running map
	}
	if sj.info.MapsDone() && !sj.mapStageEvent {
		sj.mapStageEvent = true
		e.q.Push(e.clock.Now(), evMapStageComplete, sj.info.ID, 0)
	}
}

func (e *Engine) onMapStageComplete(sj *simJob) {
	now := e.clock.Now()
	sj.out.MapStageEnd = now
	if e.sink != nil {
		e.emit(obs.KindMapStageComplete, sj.info.ID, -1, 0, 0)
	}
	// Every filler reduce now has its time: its shuffle completes
	// firstShuffle seconds after the map stage, then its reduce phase runs.
	for i := sj.fillerHead; i >= 0; i = e.fillers[i].next {
		f := &e.fillers[i]
		end := now + f.firstShuffle + f.reducePhase
		e.q.Place(f.seq, end, evReduceTaskDeparture, sj.info.ID, f.task)
		e.fillerPatches++
		if e.sink != nil {
			e.emit(obs.KindFillerPatch, sj.info.ID, f.task, end, now+f.firstShuffle)
		}
	}
	e.freeFillers(sj)
	// Map-only jobs depart here; so do jobs whose reduces all finished
	// already (possible under the NoFirstShuffleSpecialCase ablation,
	// where a replayed cold shuffle can end before the map stage).
	if sj.info.Done() {
		e.departJob(sj)
	}
}

func (e *Engine) onReduceTaskArrival(sj *simJob) {
	now := e.clock.Now()
	i := sj.nextReduce
	sj.nextReduce++
	reducePhase := sj.tpl.ReduceDuration(i)

	if !sj.info.MapsDone() && !e.cfg.NoFirstShuffleSpecialCase {
		// First-wave reduce: a filler task of unbounded duration. Its
		// departure takes its place in the event order now and its time
		// when the map stage completes.
		w := sj.firstWave
		sj.firstWave++
		firstShuffle := sj.tpl.FirstShuffleDuration(w)
		if e.cfg.NoShuffleModel {
			firstShuffle = 0 // Mumak ablation: reduce starts right at map end
		}
		e.addFiller(sj, fillerReduce{
			seq:          e.q.Reserve(),
			firstShuffle: firstShuffle,
			reducePhase:  reducePhase,
			task:         i,
			next:         -1,
		})
		if e.sink != nil {
			inf := math.Inf(1)
			e.emit(obs.KindReduceTaskStart, sj.info.ID, i, inf, inf)
		}
		return
	}
	// Typical reduce: full shuffle then reduce phase. Under the
	// no-first-shuffle ablation this branch also (mis)handles first-wave
	// reduces, replaying a cold shuffle from the task's own start.
	w := sj.typicalWave
	sj.typicalWave++
	shuffle := sj.tpl.TypicalShuffleDuration(w)
	if e.cfg.NoShuffleModel {
		shuffle = 0
	}
	end := now + shuffle + reducePhase
	e.q.Push(end, evReduceTaskDeparture, sj.info.ID, i)
	if e.sink != nil {
		e.emit(obs.KindReduceTaskStart, sj.info.ID, i, end, now+shuffle)
	}
}

// addFiller appends f to the job's filler list, in a free arena entry
// when there is one.
func (e *Engine) addFiller(sj *simJob, f fillerReduce) {
	i := e.fillerFree
	if i >= 0 {
		e.fillerFree = e.fillers[i].next
		e.fillers[i] = f
	} else {
		i = int32(len(e.fillers))
		e.fillers = append(e.fillers, f)
	}
	if sj.fillerTail >= 0 {
		e.fillers[sj.fillerTail].next = i
	} else {
		sj.fillerHead = i
	}
	sj.fillerTail = i
}

// freeFillers returns the job's whole filler list to the arena's free
// entries at once.
func (e *Engine) freeFillers(sj *simJob) {
	if sj.fillerTail >= 0 {
		e.fillers[sj.fillerTail].next = e.fillerFree
		e.fillerFree = sj.fillerHead
		sj.fillerHead, sj.fillerTail = -1, -1
	}
}

// placeStalledFillers gives every filler reduce still waiting the one
// time left to it, Infinity: step calls it when nothing is queued, so no
// map stage the fillers wait for can complete any more. The queue orders
// them by their reserved seqs, the order they started in.
func (e *Engine) placeStalledFillers() {
	for _, sj := range e.slots {
		for i := sj.fillerHead; i >= 0; i = e.fillers[i].next {
			f := &e.fillers[i]
			e.q.Place(f.seq, des.Infinity, evReduceTaskDeparture, sj.info.ID, f.task)
		}
		e.freeFillers(sj)
	}
}

func (e *Engine) onReduceTaskDeparture(sj *simJob, task int) {
	sj.info.CompletedReduces++
	e.freeReduce++
	if e.batch != nil && e.completionCounts(sj) {
		e.batch.OnJobUpdate(&sj.info)
	}
	if e.sink != nil {
		e.emit(obs.KindReduceTaskFinish, sj.info.ID, task, 0, 0)
		e.emit(obs.KindReduceSlotRelease, sj.info.ID, task, 0, 0)
	}
	if sj.info.Done() {
		e.departJob(sj)
	}
}

// completionCounts reports whether a task completion of sj can change
// the scheduling index's answer through the running counts it lowers:
// the index ranks by them (eachCompletion), or a cap of the job compares
// them — MinEDF's sizing. A completion that does neither, and opens no
// slow-start gate, leaves every ranking and eligibility bit of a static
// index as it was, so it does not reach the index (DESIGN.md §11).
func (e *Engine) completionCounts(sj *simJob) bool {
	return e.eachCompletion || sj.info.WantedMaps != 0 || sj.info.WantedReduces != 0
}

// departJob schedules the job-departure event (same timestamp; it flows
// through the queue so departures interleave deterministically).
func (e *Engine) departJob(sj *simJob) {
	if sj.departed {
		return
	}
	sj.departed = true
	e.q.Push(e.clock.Now(), evJobDeparture, sj.info.ID, 0)
}

func (e *Engine) onJobDeparture(sj *simJob) {
	// The clock never runs backwards, so the latest departure is the makespan.
	e.makespan = e.clock.Now()
	// The event count a handler bumps stays in the slot, which the handlers
	// have in cache anyway; the outcome takes it once, here.
	sj.out.Finish = e.makespan
	sj.out.Events = sj.events
	e.remaining--
	if e.sink != nil {
		e.emit(obs.KindJobDeparture, sj.info.ID, -1, 0, 0)
	}
	if e.batch != nil {
		e.batch.OnJobDepart(&sj.info)
	}
	if e.preemptIdx != nil {
		e.preemptIdx.Remove(&sj.info)
	}
	e.live--
}

// compactActive drops departed jobs from the active queue, preserving
// arrival order, and retires their slots: from here on nothing refers to
// them. It runs only between macro-steps or at the end of one (allocate,
// Snapshot, SetPolicy), where every job marked departed has had its
// departure event handled, so exactly live entries remain.
func (e *Engine) compactActive() {
	if len(e.active) == e.live {
		return
	}
	k := 0
	for _, sj := range e.slots {
		if sj.departed {
			e.retire(sj)
			continue
		}
		e.active[k], e.slots[k] = &sj.info, sj
		k++
	}
	clear(e.active[k:])
	clear(e.slots[k:])
	e.active, e.slots = e.active[:k], e.slots[:k]
}

// Run is a convenience wrapper: build and run in one call.
func Run(cfg Config, tr *trace.Trace, policy sched.Policy) (*Result, error) {
	e, err := New(cfg, tr, policy)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// Pool caches engines for reuse across runs. A grid workload (capacity
// sweep, replay batch, deadline sweep) that replays hundreds of cells
// holds roughly one engine per worker goroutine instead of building —
// and garbage-collecting — one engine per cell: the queue's lanes, the
// job slots, scheduling index and scratch slices all carry over through
// Reset.
//
// The zero value is ready to use, and a Pool is safe for concurrent
// use (it wraps sync.Pool, so the steady-state population tracks
// GOMAXPROCS and an engine idle through two GC cycles is dropped,
// releasing its storage). Determinism is unaffected: a reset
// engine is observationally identical to a fresh one, so pooled results
// stay byte-identical to unpooled runs.
type Pool struct {
	p sync.Pool

	// parent and onGet are set only on the handles Observed returns: the
	// pool whose engines the handle draws on, and who hears about it.
	parent *Pool
	onGet  func(reused bool)
}

// Shared is the process-wide pool behind every fan-out entry point
// (CapacitySweep, ReplayBatchCfg, BranchSet, the deadline sweeps): an
// engine armed for a trace by one call is still warm for the next call
// of the session. What it may pin is bounded by Put.
var Shared Pool

// Observed returns a handle on p that reports each acquisition (Get,
// Run, FoldTrail, Fork) to onGet with whether a warmed engine was reused
// (true) or a fresh one built (false) — the telemetry hook behind the
// engine-reuse hit rate. Engines still come from and go back to p, so
// one call's observer never hears another's acquisitions. onGet is
// called from whichever goroutine acquires the engine and must be safe
// for concurrent calls.
func (p *Pool) Observed(onGet func(reused bool)) *Pool {
	if p.parent != nil {
		p = p.parent
	}
	return &Pool{parent: p, onGet: onGet}
}

// store is where p's engines live: in p, or for an Observed handle in
// the observed pool.
func (p *Pool) store() *sync.Pool {
	if p.parent != nil {
		return &p.parent.p
	}
	return &p.p
}

// take returns an idle engine, or nil when a fresh one must be built.
func (p *Pool) take() *Engine {
	e, _ := p.store().Get().(*Engine)
	if p.onGet != nil {
		p.onGet(e != nil)
	}
	return e
}

// Get returns an engine armed for (cfg, tr, policy): a reused engine
// when one is idle in the pool, a newly built one otherwise.
func (p *Pool) Get(cfg Config, tr *trace.Trace, policy sched.Policy) (*Engine, error) {
	if e := p.take(); e != nil {
		if err := e.Reset(cfg, tr, policy); err != nil {
			return nil, err
		}
		return e, nil
	}
	return New(cfg, tr, policy)
}

// poolSlabSlack and poolSmallSlab state what an idle engine may hold:
// a by-position table (and with it every per-job array: arrival
// schedule, scratch Result, and the job slots, which never outnumber a
// trace the table has held) at most poolSlabSlack times the job count of
// the run it just finished — tables of up to poolSmallSlab jobs are kept
// regardless, there is nothing to win below that.
const (
	poolSlabSlack = 4
	poolSmallSlab = 1024
)

// Put returns an engine to the pool. The caller must not use it
// afterwards; the next Get may hand it to another goroutine.
//
// The pool outlives every caller, so Put bounds what an idle engine
// keeps alive. Dropped instead of pooled: an engine whose per-job arrays
// are more than poolSlabSlack times the jobs it just ran (one
// 100 000-job replay must not leave megabytes parked under a session of
// 1 000-job sweeps — the next big replay pays one cold arm instead), and
// an engine sealed by Snapshot (its forks may still be reading it).
// Released before pooling: everything that belongs to the caller or
// points into the trace — the sink, the policy instance, the outcome
// array, the jobs still in slots, a fork's link to its snapshot. What
// stays is warmed capacity.
func (p *Pool) Put(e *Engine) {
	if e == nil || !e.poolable() {
		return
	}
	e.setSink(nil)
	e.policy, e.arrive = nil, nil
	e.release()
	p.store().Put(e)
}

// poolable is Put's rule for which engines are worth keeping.
func (e *Engine) poolable() bool {
	c := cap(e.slotOf)
	return e.state != runSealed && (c <= poolSmallSlab || c <= poolSlabSlack*len(e.slotOf))
}

// Run replays tr on a pooled engine: Get, Run, Put. The engine is
// returned to the pool even after a failed run — Reset re-arms it
// completely, so an engine carries no state out of an aborted replay.
func (p *Pool) Run(cfg Config, tr *trace.Trace, policy sched.Policy) (*Result, error) {
	e, err := p.Get(cfg, tr, policy)
	if err != nil {
		return nil, err
	}
	res, err := e.Run()
	p.Put(e)
	return res, err
}
