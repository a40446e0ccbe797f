// Package attr is the causal attribution layer: it consumes the
// engine's observability stream (obs.Sink, all 13 event kinds) and
// reconstructs, per job, *why* the job finished when it did — a
// wait-time breakdown whose phases sum exactly to completion−arrival —
// plus a cluster-wide critical path (the chain of slot hand-offs that
// determines the makespan) and blame assignment: for every
// contended-slot wait, which resident job held the slot the waiter was
// granted, or that the policy left slots idle on purpose.
//
// The attribution model (DESIGN.md §13):
//
//   - Phases partition each job's [arrival, finish] interval by
//     observable state, so conservation holds by construction:
//     admission-wait (arrival → first map-slot grant), then within the
//     map stage map-run / map-slot-wait / preempt-requeue (≥1 running
//     map, idle with no killed work pending, idle with killed work
//     pending), then after map-stage completion reduce-slot-wait (no
//     reduce running), shuffle-barrier (reduces running but all still
//     in shuffle), and reduce-run (≥1 reduce in its reduce phase).
//   - Blame follows the slot hand-off: the engine grants a slot either
//     off a same-timestamp release (contended — the releasing job held
//     "your" slot until the very end of your wait) or off a slot that
//     sat free (the policy's decision not to schedule earlier). The
//     sink tracks both exactly when built with the cluster's slot
//     counts, heuristically (same-timestamp pairing only) otherwise.
//   - The critical path walks backwards from the task whose finish is
//     the makespan, through hand-off edges (the releasing task), own
//     waits (and the task whose finish opened them), filler patches
//     (the map-stage barrier), down to a job arrival.
//
// One Sink per engine (the obs.Sink contract).
package attr

import (
	"fmt"
	"math"
	"sort"

	"simmr/internal/obs"
	"simmr/internal/trace"
)

// Phase identifies one attribution phase. The seven phases partition a
// job's completion interval; String returns the stable report label.
type Phase uint8

const (
	// PhaseAdmissionWait is arrival → first map-slot grant.
	PhaseAdmissionWait Phase = iota
	// PhaseMapRun is time within the map stage with ≥1 running map.
	PhaseMapRun
	// PhaseMapSlotWait is mid-map-stage idle time (no running maps, no
	// killed work pending) — waiting on map-slot contention.
	PhaseMapSlotWait
	// PhasePreemptRequeue is mid-map-stage idle time with preempted map
	// attempts queued for re-execution.
	PhasePreemptRequeue
	// PhaseShuffleBarrier is post-map-stage time where reduces are
	// running but every one of them is still in its shuffle.
	PhaseShuffleBarrier
	// PhaseReduceSlotWait is post-map-stage time with no running reduce.
	PhaseReduceSlotWait
	// PhaseReduceRun is post-map-stage time with ≥1 reduce in its
	// reduce (post-shuffle) phase.
	PhaseReduceRun

	// PhaseCount bounds the Phase space for per-phase arrays.
	PhaseCount
)

var phaseNames = [PhaseCount]string{
	"admission-wait", "map-run", "map-slot-wait", "preempt-requeue",
	"shuffle-barrier", "reduce-slot-wait", "reduce-run",
}

// WaitPhases lists the five wait phases — the breakdown exported as
// simmr_job_wait_seconds{phase=...} — in exposition order.
var WaitPhases = []Phase{
	PhaseAdmissionWait, PhaseMapSlotWait, PhasePreemptRequeue,
	PhaseShuffleBarrier, PhaseReduceSlotWait,
}

// String returns the stable lowercase phase label.
func (p Phase) String() string {
	if p < PhaseCount {
		return phaseNames[p]
	}
	return "unknown"
}

// BlamePolicy is the WaitInterval.BlameJob value for waits that ended
// on a slot that sat free: no resident job held the slot — the policy
// chose not to (or was configured not to) schedule the waiter earlier.
const BlamePolicy = -1

// WaitInterval is one contended or policy-induced wait: the job made no
// forward progress in [Start, End] while wanting a slot of Class.
type WaitInterval struct {
	Phase Phase
	// Class is the contended slot class: false = map, true = reduce.
	Reduce bool
	Start  float64
	End    float64
	// BlameJob is the resident job whose slot hand-off ended the wait
	// (it held the contended slot through the wait's final instant), the
	// preempting job for PhasePreemptRequeue, or BlamePolicy when the
	// granted slot sat free during the wait (a policy decision, not slot
	// contention).
	BlameJob int
	// BlameTask is the task whose release was handed to the waiter; -1
	// for BlamePolicy and preemptor blame.
	BlameTask int
}

// Duration returns End − Start.
func (w *WaitInterval) Duration() float64 { return w.End - w.Start }

// Blame renders the blame assignment for reports.
func (w *WaitInterval) Blame() string {
	if w.BlameJob == BlamePolicy {
		return "policy"
	}
	if w.BlameTask < 0 {
		return fmt.Sprintf("job %d", w.BlameJob)
	}
	class := "m"
	if w.Reduce {
		class = "r"
	}
	return fmt.Sprintf("job %d/%s%d", w.BlameJob, class, w.BlameTask)
}

// Explanation decomposes one job's completion time. Phases sum exactly
// to Finish − Arrival (the sink folds the floating-point residual into
// the largest phase; see normalize).
type Explanation struct {
	JobID       int
	Name        string
	Arrival     float64
	Finish      float64
	Deadline    float64
	MapStageEnd float64

	// Phases holds seconds per attribution phase, indexed by Phase.
	Phases [PhaseCount]float64
	// Waits lists the job's individual wait intervals with blame, in
	// time order.
	Waits []WaitInterval

	// Missed is set when the job finished past a positive deadline.
	Missed bool
	// RootCause is the phase that consumed the most completion time —
	// for a missed deadline, the report's root cause. A run phase as
	// root cause means the job was simply too big for its window.
	RootCause Phase
}

// Completion returns Finish − Arrival.
func (e *Explanation) Completion() float64 { return e.Finish - e.Arrival }

// PhaseSum sums the phases in fixed Phase order — the quantity the
// conservation contract pins to Completion().
func (e *Explanation) PhaseSum() float64 {
	var sum float64
	for _, v := range e.Phases {
		sum += v
	}
	return sum
}

// WaitTotal sums the wait phases (everything but map-run/reduce-run/
// shuffle progress is counted as waiting; shuffle-barrier is included —
// the job occupies slots but makes no reduce progress).
func (e *Explanation) WaitTotal() float64 {
	var sum float64
	for _, p := range WaitPhases {
		sum += e.Phases[p]
	}
	return sum
}

// normalize folds the floating-point residual of the phase partition
// into one phase so PhaseSum() == Completion() exactly. The partition
// is exact by construction; the residual is a few ulps of accumulated
// rounding. A single phase cannot always absorb it — when the adjusted
// phase sits in the same binade as the total, round-to-nearest-even can
// make the left-to-right sum skip the total from either side forever —
// so after a bulk fold the walk retries across phases in descending
// magnitude until the sum lands exactly.
func (e *Explanation) normalize() {
	total := e.Finish - e.Arrival
	if total-e.PhaseSum() == 0 {
		return
	}
	order := [PhaseCount]int{}
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order[:], func(a, b int) bool {
		return e.Phases[order[a]] > e.Phases[order[b]]
	})
	for _, idx := range order {
		saved := e.Phases[idx]
		// Bulk fold, then single-ulp steps toward the target.
		if r := total - e.PhaseSum(); r != 0 {
			e.Phases[idx] += r
		}
		landed := false
		for step := 0; step < 8; step++ {
			r := total - e.PhaseSum()
			if r == 0 {
				landed = true
				break
			}
			dir := math.Inf(1)
			if r < 0 {
				dir = math.Inf(-1)
			}
			e.Phases[idx] = math.Nextafter(e.Phases[idx], dir)
		}
		if landed && e.Phases[idx] >= 0 {
			return
		}
		e.Phases[idx] = saved
	}
}

// CPStepKind tags one critical-path step.
type CPStepKind uint8

const (
	// CPTask is a task execution on the critical chain.
	CPTask CPStepKind = iota
	// CPWait is a slot wait on the chain (the blamed interval).
	CPWait
	// CPBarrier is the map-stage→shuffle barrier of a filler reduce.
	CPBarrier
	// CPArrival is the chain's origin: a job arrival.
	CPArrival
)

func (k CPStepKind) String() string {
	switch k {
	case CPTask:
		return "task"
	case CPWait:
		return "wait"
	case CPBarrier:
		return "barrier"
	default:
		return "arrival"
	}
}

// CPStep is one step of the makespan critical path, in chronological
// order after the walk reverses it.
type CPStep struct {
	Kind  CPStepKind
	JobID int
	// Task is the task index for CPTask steps, -1 otherwise.
	Task int
	// Reduce distinguishes the slot class for CPTask/CPWait steps.
	Reduce bool
	Start  float64
	End    float64
	// Detail carries the step's report annotation: the wait phase and
	// blame for CPWait, "preempted" for killed attempts.
	Detail string
}

// Options parameterizes a Sink.
type Options struct {
	// MapSlots / ReduceSlots are the engine's configured slot counts.
	// When set, free-slot accounting is exact: a wait is blamed on a
	// resident job only if the granted slot was genuinely held through
	// the wait (otherwise the policy is blamed). When zero, the sink
	// falls back to same-timestamp release pairing.
	MapSlots    int
	ReduceSlots int
	// Trace, when set, supplies job names (they are not part of the
	// event stream); jobs missing from it get empty names. Deadlines
	// come from each job's arrival event.
	Trace *trace.Trace
}

// rspan is one reduce task's recorded sub-phase boundaries.
type rspan struct {
	start, shuffleEnd, end float64
}

// grant is a slot grant awaiting its task-start event, carrying the
// hand-off provenance resolved at allocation time.
type grant struct {
	waitStart float64 // NaN when the grant ended no wait
	handoff   int32   // releasing task record index, -1 for a free slot
}

// taskRec is one task execution, the node type of the critical path.
type taskRec struct {
	job, task  int32
	reduce     bool
	filler     bool
	preempted  bool
	start, end float64
	// handoff is the record index of the release this start was paired
	// with (-1: the slot sat free). waitStart is the opening of the wait
	// this grant ended (NaN: no wait).
	handoff   int32
	waitStart float64
}

// openKey identifies a running task (a job can run map i and reduce i
// simultaneously, so the class is part of the key).
type openKey struct {
	job, task int32
	reduce    bool
}

// classState tracks one slot class's hand-off book: how many slots sit
// free from earlier timestamps and which releases happened at the
// current timestamp, FIFO-paired with grants.
type classState struct {
	staleFree int     // slots free since before relTime (known-total mode)
	known     bool    // staleFree is exact (Options slot counts given)
	relTime   float64 // timestamp of the entries in rel
	rel       []int32 // task record indices released at relTime, FIFO
}

// age rolls unclaimed same-timestamp releases into the stale-free pool
// once the clock moves past them.
func (c *classState) age(now float64) {
	if now > c.relTime {
		if c.known {
			c.staleFree += len(c.rel)
		}
		c.rel = c.rel[:0]
		c.relTime = now
	}
}

// release records a freed slot at now.
func (c *classState) release(now float64, rec int32) {
	c.age(now)
	c.rel = append(c.rel, rec)
}

// grant pairs one allocation at now with its provenance: a stale free
// slot (no hand-off) or the oldest same-timestamp release (hand-off).
func (c *classState) grant(now float64) (handoff int32) {
	c.age(now)
	if c.known && c.staleFree > 0 {
		c.staleFree--
		return -1
	}
	if len(c.rel) > 0 {
		h := c.rel[0]
		c.rel = c.rel[1:]
		return h
	}
	return -1
}

// jobState is the per-job accumulation state.
type jobState struct {
	seen     bool
	arrived  bool
	finished bool

	id       int
	name     string
	arrival  float64
	deadline float64
	finish   float64

	// Map stage.
	firstAlloc   float64 // first map-slot grant; NaN until granted
	mapStageEnd  float64 // NaN until the stage completes
	runningMaps  int
	retryPending int     // preempted attempts queued for re-execution
	runStart     float64 // running-maps 0→1 transition time
	idleStart    float64 // running-maps →0 transition time; NaN while running
	preemptor    int     // job to blame for the current requeue; -1 none

	// Reduce stage.
	runningReduces int
	rIdleStart     float64 // post-map-stage reduce-idle start; NaN otherwise
	rSpans         []rspan

	phases [PhaseCount]float64
	waits  []WaitInterval
	grants [2][]grant // pending slot grants by class (0 map, 1 reduce)
	recs   []int32    // this job's task record indices, in start order
}

// Sink consumes one engine's event stream and reconstructs per-job
// explanations and the makespan critical path. Single-goroutine like
// every obs.Sink; one Sink per engine. Read its Report after RunEnd.
type Sink struct {
	opts Options

	// dense holds job states for small IDs (the normalized-trace fast
	// path); sparse catches the rest.
	dense  []jobState
	sparse map[int]*jobState
	ids    []int // every observed job ID, arrival order

	recs    []taskRec
	open    map[openKey]int32
	classes [2]classState
	// lastClosed caches, per class, the record closed by the most recent
	// finish/preempt event — the engine emits the matching slot release
	// immediately after, so the release resolves in O(1).
	lastClosed [2]int32

	lastArrivalJob  int
	lastArrivalTime float64

	// posOf maps a job ID to its Options.Trace position, built on the
	// first job whose ID is not its position; read-only after, so
	// forks share it.
	posOf map[int]int

	counters obs.Counters
	exps     []Explanation // nil until RunEnd
	cp       []CPStep
}

// denseLimit bounds the dense job-state table: IDs below it index a
// slice, the rest fall back to a map.
const denseLimit = 1 << 16

// NewSink builds an attribution sink. Pass the engine's slot counts in
// opts for exact free-slot blame accounting.
func NewSink(opts Options) *Sink {
	s := &Sink{
		opts: opts,
		open: make(map[openKey]int32),
	}
	s.classes[0] = classState{staleFree: opts.MapSlots, known: opts.MapSlots > 0, relTime: math.Inf(-1)}
	s.classes[1] = classState{staleFree: opts.ReduceSlots, known: opts.ReduceSlots > 0, relTime: math.Inf(-1)}
	s.lastClosed[0], s.lastClosed[1] = -1, -1
	return s
}

// job returns (creating if needed) the state for id.
func (s *Sink) job(id int) *jobState {
	if id >= 0 && id < denseLimit {
		if id >= len(s.dense) {
			// Grow geometrically and only past capacity; a new ID inside
			// it is a reslice (the spare tail is still zeroed), so a
			// replay's IDs cost O(log n) table copies, not one each.
			if id >= cap(s.dense) {
				grown := make([]jobState, len(s.dense), (id+1)*2)
				copy(grown, s.dense)
				s.dense = grown
			}
			s.dense = s.dense[:id+1]
		}
		j := &s.dense[id]
		if !j.seen {
			s.initJob(j, id)
		}
		return j
	}
	if s.sparse == nil {
		s.sparse = make(map[int]*jobState)
	}
	j := s.sparse[id]
	if j == nil {
		j = &jobState{}
		s.initJob(j, id)
		s.sparse[id] = j
	}
	return j
}

func (s *Sink) initJob(j *jobState, id int) {
	j.seen = true
	j.id = id
	j.firstAlloc = math.NaN()
	j.mapStageEnd = math.NaN()
	j.runStart = math.NaN()
	j.idleStart = math.NaN()
	j.rIdleStart = math.NaN()
	j.preemptor = -1
	if s.opts.Trace != nil {
		if p, ok := s.tracePos(id); ok {
			j.name = s.opts.Trace.Jobs[p].Name
		}
	}
	s.ids = append(s.ids, id)
}

// tracePos finds job id in Options.Trace: at its ID in a normalized
// trace (ID == index), else through posOf.
func (s *Sink) tracePos(id int) (int, bool) {
	jobs := s.opts.Trace.Jobs
	if id >= 0 && id < len(jobs) && jobs[id].ID == id {
		return id, true
	}
	if s.posOf == nil {
		s.posOf = make(map[int]int, len(jobs))
		for p := len(jobs) - 1; p >= 0; p-- {
			s.posOf[jobs[p].ID] = p
		}
	}
	p, ok := s.posOf[id]
	return p, ok
}

// Event consumes one engine event.
func (s *Sink) Event(ev obs.Event) {
	switch ev.Kind {
	case obs.KindJobArrival:
		j := s.job(ev.JobID)
		j.arrived = true
		j.arrival = ev.Time
		j.deadline = ev.End
		s.lastArrivalJob, s.lastArrivalTime = ev.JobID, ev.Time
	case obs.KindMapSlotAlloc:
		s.onAlloc(s.job(ev.JobID), ev.Time, false)
	case obs.KindReduceSlotAlloc:
		s.onAlloc(s.job(ev.JobID), ev.Time, true)
	case obs.KindMapTaskStart:
		s.onTaskStart(s.job(ev.JobID), ev, false)
	case obs.KindReduceTaskStart:
		s.onTaskStart(s.job(ev.JobID), ev, true)
	case obs.KindMapTaskFinish:
		s.onMapEnd(s.job(ev.JobID), ev, false)
	case obs.KindPreempt:
		s.onMapEnd(s.job(ev.JobID), ev, true)
	case obs.KindReduceTaskFinish:
		s.onReduceFinish(s.job(ev.JobID), ev)
	case obs.KindMapSlotRelease, obs.KindReduceSlotRelease:
		// The matching task record was closed by the finish/preempt event
		// just before; hand its index to the hand-off book.
		class := 0
		reduce := false
		if ev.Kind == obs.KindReduceSlotRelease {
			class, reduce = 1, true
		}
		rec := int32(-1)
		if lc := s.lastClosed[class]; lc >= 0 {
			if r := &s.recs[lc]; int(r.job) == ev.JobID && int(r.task) == ev.Task {
				rec = lc
			}
		}
		if rec < 0 {
			// Fallback: find the job's just-closed record (its records are
			// in start order — scan backwards, the match is near the end).
			j := s.job(ev.JobID)
			for i := len(j.recs) - 1; i >= 0; i-- {
				r := &s.recs[j.recs[i]]
				if int(r.task) == ev.Task && r.reduce == reduce {
					rec = j.recs[i]
					break
				}
			}
		}
		s.classes[class].release(ev.Time, rec)
	case obs.KindMapStageComplete:
		s.onMapStageComplete(s.job(ev.JobID), ev.Time)
	case obs.KindFillerPatch:
		s.onFillerPatch(s.job(ev.JobID), ev)
	case obs.KindJobDeparture:
		s.onDeparture(s.job(ev.JobID), ev.Time)
	}
}

// onAlloc handles a slot grant: resolve the hand-off, close any open
// wait, and queue the grant for the task-start event that follows at
// the same timestamp.
func (s *Sink) onAlloc(j *jobState, now float64, reduce bool) {
	class := 0
	if reduce {
		class = 1
	}
	handoff := s.classes[class].grant(now)

	waitStart := math.NaN()
	if !reduce {
		switch {
		case math.IsNaN(j.firstAlloc):
			// First map grant: the admission wait [arrival, now] closes.
			j.firstAlloc = now
			j.phases[PhaseAdmissionWait] += now - j.arrival
			waitStart = j.arrival
			if now > j.arrival {
				s.recordWait(j, PhaseAdmissionWait, reduce, j.arrival, now, handoff)
			}
		case !math.IsNaN(j.idleStart):
			// Mid-stage idle closes: requeue wait if killed work pends.
			phase := PhaseMapSlotWait
			if j.retryPending > 0 {
				phase = PhasePreemptRequeue
			}
			j.phases[phase] += now - j.idleStart
			waitStart = j.idleStart
			if now > j.idleStart {
				s.recordWait(j, phase, reduce, j.idleStart, now, handoff)
			}
			j.idleStart = math.NaN()
		}
	} else if !math.IsNaN(j.rIdleStart) {
		// Post-map-stage reduce idle closes.
		j.phases[PhaseReduceSlotWait] += now - j.rIdleStart
		waitStart = j.rIdleStart
		if now > j.rIdleStart {
			s.recordWait(j, PhaseReduceSlotWait, reduce, j.rIdleStart, now, handoff)
		}
		j.rIdleStart = math.NaN()
	}
	j.grants[class] = append(j.grants[class], grant{waitStart: waitStart, handoff: handoff})
}

// recordWait appends one blamed wait interval.
func (s *Sink) recordWait(j *jobState, phase Phase, reduce bool, start, end float64, handoff int32) {
	w := WaitInterval{
		Phase: phase, Reduce: reduce, Start: start, End: end,
		BlameJob: BlamePolicy, BlameTask: -1,
	}
	if phase == PhasePreemptRequeue && j.preemptor >= 0 {
		// The wait exists because another job's arrival killed this one's
		// running maps; blame the preemptor over the hand-off.
		w.BlameJob = j.preemptor
	} else if handoff >= 0 {
		r := &s.recs[handoff]
		w.BlameJob, w.BlameTask = int(r.job), int(r.task)
	}
	j.waits = append(j.waits, w)
}

// onTaskStart opens a task record, consuming the matching grant.
func (s *Sink) onTaskStart(j *jobState, ev obs.Event, reduce bool) {
	class := 0
	if reduce {
		class = 1
	}
	g := grant{waitStart: math.NaN(), handoff: -1}
	if q := j.grants[class]; len(q) > 0 {
		g = q[0]
		j.grants[class] = q[1:]
	}
	rec := int32(len(s.recs))
	s.recs = append(s.recs, taskRec{
		job: int32(j.id), task: int32(ev.Task), reduce: reduce,
		filler: reduce && math.IsInf(ev.End, 1),
		start:  ev.Time, end: ev.End,
		handoff: g.handoff, waitStart: g.waitStart,
	})
	s.open[openKey{int32(j.id), int32(ev.Task), reduce}] = rec
	j.recs = append(j.recs, rec)

	if reduce {
		// Record the sub-phase boundaries for the post-map-stage
		// shuffle/reduce split (patched later for fillers).
		for len(j.rSpans) <= ev.Task {
			j.rSpans = append(j.rSpans, rspan{})
		}
		j.rSpans[ev.Task] = rspan{start: ev.Time, shuffleEnd: ev.ShuffleEnd, end: ev.End}
		j.runningReduces++
		if !math.IsNaN(j.rIdleStart) {
			// A reduce-idle marker set between this start's grant and now
			// (e.g. map-stage completion in the same macro-step) closes
			// here — the span is zero because grant and start share a
			// timestamp.
			j.phases[PhaseReduceSlotWait] += ev.Time - j.rIdleStart
			j.rIdleStart = math.NaN()
		}
		return
	}
	if j.retryPending > 0 {
		// The engine re-executes killed attempts before fresh indices.
		j.retryPending--
	}
	if j.runningMaps == 0 {
		j.runStart = ev.Time
	}
	j.runningMaps++
	if !math.IsNaN(j.idleStart) {
		// Same race as above on the map side: a finish at this timestamp
		// marked the job idle after this start's slot was already granted.
		phase := PhaseMapSlotWait
		if j.retryPending > 0 {
			phase = PhasePreemptRequeue
		}
		j.phases[phase] += ev.Time - j.idleStart
		j.idleStart = math.NaN()
	}
}

// onMapEnd closes a map record on finish or preemption.
func (s *Sink) onMapEnd(j *jobState, ev obs.Event, preempted bool) {
	key := openKey{int32(j.id), int32(ev.Task), false}
	if rec, ok := s.open[key]; ok {
		delete(s.open, key)
		r := &s.recs[rec]
		r.end = ev.Time
		r.preempted = preempted
		s.lastClosed[0] = rec
	}
	if preempted {
		j.retryPending++
		if s.lastArrivalTime == ev.Time {
			j.preemptor = s.lastArrivalJob
		}
	}
	j.runningMaps--
	if j.runningMaps == 0 {
		j.phases[PhaseMapRun] += ev.Time - j.runStart
		j.runStart = math.NaN()
		if math.IsNaN(j.mapStageEnd) {
			j.idleStart = ev.Time
		}
	}
}

func (s *Sink) onReduceFinish(j *jobState, ev obs.Event) {
	key := openKey{int32(j.id), int32(ev.Task), true}
	if rec, ok := s.open[key]; ok {
		delete(s.open, key)
		s.recs[rec].end = ev.Time
		s.lastClosed[1] = rec
	}
	if int(ev.Task) < len(j.rSpans) {
		j.rSpans[ev.Task].end = ev.Time
	}
	j.runningReduces--
	if j.runningReduces == 0 && !math.IsNaN(j.mapStageEnd) {
		j.rIdleStart = ev.Time
	}
}

func (s *Sink) onMapStageComplete(j *jobState, now float64) {
	j.mapStageEnd = now
	j.idleStart = math.NaN()
	if j.runningReduces == 0 {
		j.rIdleStart = now
	}
}

func (s *Sink) onFillerPatch(j *jobState, ev obs.Event) {
	if int(ev.Task) < len(j.rSpans) {
		j.rSpans[ev.Task].shuffleEnd = ev.ShuffleEnd
		j.rSpans[ev.Task].end = ev.End
	}
	if rec, ok := s.open[openKey{int32(j.id), int32(ev.Task), true}]; ok {
		s.recs[rec].end = ev.End
	}
}

// onDeparture finalizes the job's reduce-side split: post-map-stage
// busy time divides into reduce-run (covered by some reduce's
// post-shuffle sub-interval) and shuffle-barrier (the rest).
func (s *Sink) onDeparture(j *jobState, now float64) {
	j.finished = true
	j.finish = now
	if !math.IsNaN(j.rIdleStart) && j.rIdleStart < now {
		// Trailing reduce idle (zero in practice: a job departs at its
		// last task finish).
		j.phases[PhaseReduceSlotWait] += now - j.rIdleStart
	}
	j.rIdleStart = math.NaN()
	msc := j.mapStageEnd
	if math.IsNaN(msc) {
		return // never completed its map stage (cannot happen on a clean run)
	}
	busy := (now - msc) - j.phases[PhaseReduceSlotWait]
	run := reduceRunSeconds(j.rSpans, msc, now)
	if run > busy {
		run = busy
	}
	j.phases[PhaseReduceRun] = run
	if barrier := busy - run; barrier > 0 {
		j.phases[PhaseShuffleBarrier] = barrier
	}
}

// reduceRunSeconds measures the union of the jobs' post-shuffle reduce
// sub-intervals clipped to [msc, finish].
func reduceRunSeconds(spans []rspan, msc, finish float64) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(spans))
	for _, sp := range spans {
		a, b := sp.shuffleEnd, sp.end
		if math.IsInf(b, 1) || b <= a {
			continue
		}
		if a < msc {
			a = msc
		}
		if b > finish {
			b = finish
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, k int) bool { return ivs[i].a < ivs[k].a })
	var total float64
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v.a <= cur.b {
			if v.b > cur.b {
				cur.b = v.b
			}
			continue
		}
		total += cur.b - cur.a
		cur = v
	}
	total += cur.b - cur.a
	return total
}

// RunEnd finalizes the attribution: per-job explanations (conservation
// normalized) and the makespan critical path.
func (s *Sink) RunEnd(c obs.Counters) {
	s.counters = c
	s.exps = make([]Explanation, 0, len(s.ids))
	ids := append([]int(nil), s.ids...)
	sort.Ints(ids)
	for _, id := range ids {
		j := s.jobRO(id)
		if j == nil || !j.finished {
			continue
		}
		e := Explanation{
			JobID: j.id, Name: j.name,
			Arrival: j.arrival, Finish: j.finish, Deadline: j.deadline,
			MapStageEnd: j.mapStageEnd,
			Phases:      j.phases,
			Waits:       j.waits,
			Missed:      j.deadline > 0 && j.finish > j.deadline,
		}
		e.normalize()
		best := Phase(0)
		for p := Phase(1); p < PhaseCount; p++ {
			if e.Phases[p] > e.Phases[best] {
				best = p
			}
		}
		e.RootCause = best
		s.exps = append(s.exps, e)
	}
	s.cp = s.walkCriticalPath()
}

// jobRO returns the state for id without creating it.
func (s *Sink) jobRO(id int) *jobState {
	if id >= 0 && id < len(s.dense) {
		if j := &s.dense[id]; j.seen {
			return j
		}
		return nil
	}
	return s.sparse[id]
}

// walkCriticalPath walks backwards from the makespan-defining task
// through hand-off edges, own waits, and the filler barrier, down to a
// job arrival, then reverses into chronological order.
func (s *Sink) walkCriticalPath() []CPStep {
	cur := int32(-1)
	for i := range s.recs {
		r := &s.recs[i]
		if r.preempted || math.IsInf(r.end, 1) {
			continue
		}
		if cur < 0 || r.end > s.recs[cur].end ||
			(r.end == s.recs[cur].end && r.start > s.recs[cur].start) {
			cur = int32(i)
		}
	}
	if cur < 0 {
		return nil
	}
	var steps []CPStep
	visited := make(map[int32]bool)
	for cur >= 0 && !visited[cur] && len(steps) < 1<<16 {
		visited[cur] = true
		r := &s.recs[cur]
		j := s.jobRO(int(r.job))
		detail := ""
		if r.preempted {
			detail = "preempted"
		}
		steps = append(steps, CPStep{
			Kind: CPTask, JobID: int(r.job), Task: int(r.task),
			Reduce: r.reduce, Start: r.start, End: r.end, Detail: detail,
		})
		if r.filler && j != nil && !math.IsNaN(j.mapStageEnd) {
			// A filler's finish is pinned by the map-stage barrier, not by
			// its own start: chain through the last map finish.
			steps = append(steps, CPStep{
				Kind: CPBarrier, JobID: int(r.job), Task: -1,
				Start: j.mapStageEnd, End: r.end,
				Detail: "shuffle barrier (map stage gated the filler's finish)",
			})
			cur = lastMapRec(s, j, j.mapStageEnd)
			continue
		}
		if r.handoff >= 0 {
			cur = r.handoff
			continue
		}
		// Free-slot grant: the binding constraint is the job's own
		// history — the wait that this grant closed, a same-time own-task
		// finish (readiness), or the arrival itself.
		if !math.IsNaN(r.waitStart) && r.waitStart < r.start && j != nil {
			w := findWait(j, r.waitStart, r.start)
			detail := "wait"
			if w != nil {
				detail = fmt.Sprintf("%s (blame %s)", w.Phase, w.Blame())
			}
			steps = append(steps, CPStep{
				Kind: CPWait, JobID: int(r.job), Task: -1, Reduce: r.reduce,
				Start: r.waitStart, End: r.start, Detail: detail,
			})
			if w != nil && w.Phase == PhaseAdmissionWait {
				steps = append(steps, arrivalStep(j))
				break
			}
			cur = recEndingAt(s, j, r.waitStart)
			if cur < 0 {
				steps = append(steps, arrivalStep(j))
			}
			continue
		}
		if j != nil && r.start > j.arrival {
			if prev := recEndingAt(s, j, r.start); prev >= 0 {
				cur = prev
				continue
			}
		}
		if j != nil {
			steps = append(steps, arrivalStep(j))
		}
		break
	}
	// Reverse into chronological order.
	for i, k := 0, len(steps)-1; i < k; i, k = i+1, k-1 {
		steps[i], steps[k] = steps[k], steps[i]
	}
	return steps
}

func arrivalStep(j *jobState) CPStep {
	return CPStep{Kind: CPArrival, JobID: j.id, Task: -1,
		Start: j.arrival, End: j.arrival, Detail: "job arrival"}
}

// findWait locates the job's recorded wait interval [start, end].
func findWait(j *jobState, start, end float64) *WaitInterval {
	for i := range j.waits {
		if j.waits[i].Start == start && j.waits[i].End == end {
			return &j.waits[i]
		}
	}
	return nil
}

// lastMapRec returns the job's map record finishing at the map-stage
// end (the task whose departure completed the stage).
func lastMapRec(s *Sink, j *jobState, msc float64) int32 {
	for i := len(j.recs) - 1; i >= 0; i-- {
		r := &s.recs[j.recs[i]]
		if !r.reduce && !r.preempted && r.end == msc {
			return j.recs[i]
		}
	}
	return -1
}

// recEndingAt returns a non-preempted record of j ending exactly at t
// (the task whose finish opened an idle period), preferring the most
// recently started.
func recEndingAt(s *Sink, j *jobState, t float64) int32 {
	for i := len(j.recs) - 1; i >= 0; i-- {
		r := &s.recs[j.recs[i]]
		if r.end == t && !math.IsInf(r.end, 1) {
			return j.recs[i]
		}
	}
	return -1
}

// Fork deep-copies the sink's mid-stream state so a what-if branch can
// continue attribution from a shared replay prefix: feed the copy the
// branch engine's event suffix and it produces a full-run attribution.
// The receiver must not receive further events concurrently with Fork
// (BranchSet forks only after the prefix pauses).
func (s *Sink) Fork() *Sink {
	f := &Sink{
		opts:            s.opts,
		ids:             append([]int(nil), s.ids...),
		recs:            append([]taskRec(nil), s.recs...),
		open:            make(map[openKey]int32, len(s.open)),
		lastArrivalJob:  s.lastArrivalJob,
		lastArrivalTime: s.lastArrivalTime,
		lastClosed:      s.lastClosed,
		posOf:           s.posOf,
	}
	for k, v := range s.open {
		f.open[k] = v
	}
	for c := range s.classes {
		f.classes[c] = s.classes[c]
		f.classes[c].rel = append([]int32(nil), s.classes[c].rel...)
	}
	f.dense = make([]jobState, len(s.dense))
	for i := range s.dense {
		copyJobState(&f.dense[i], &s.dense[i])
	}
	if s.sparse != nil {
		f.sparse = make(map[int]*jobState, len(s.sparse))
		for id, j := range s.sparse {
			nj := &jobState{}
			copyJobState(nj, j)
			f.sparse[id] = nj
		}
	}
	return f
}

func copyJobState(dst, src *jobState) {
	*dst = *src
	dst.rSpans = append([]rspan(nil), src.rSpans...)
	dst.waits = append([]WaitInterval(nil), src.waits...)
	dst.recs = append([]int32(nil), src.recs...)
	for c := range src.grants {
		dst.grants[c] = append([]grant(nil), src.grants[c]...)
	}
}
