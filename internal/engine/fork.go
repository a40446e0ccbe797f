// Engine forking (DESIGN.md §12): pause a replay at any macro-step
// boundary, seal it into an immutable Snapshot, and fork as many cheap
// branch engines off it as there are what-if questions. A fork copies
// what the snapshot engine holds — the queued events (running tasks and
// same-instant hand-offs), the live jobs' slots, the
// outcomes of the jobs arrived so far — which the live window (DESIGN.md
// §5, "Lifetime") keeps sized by the cluster's slots and the prefix
// replayed, not by the trace: jobs yet to arrive have no state, and
// their arrivals are the queue's immutable schedule, which the clone
// shares. Forks are independent engines: they run, pause, mutate
// (SetDeadline, InjectJob, SetPolicy), and produce Results
// byte-identical to a from-scratch replay that took the same decisions
// at the same events — the fork differential suite pins this across the
// whole policy family.
package engine

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"unsafe"

	"simmr/internal/des"
	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// jobBytes, outcomeBytes and eventBytes size the fork byte accounting.
const (
	jobBytes     = uint64(unsafe.Sizeof(simJob{}))
	outcomeBytes = uint64(unsafe.Sizeof(JobOutcome{}))
	eventBytes   = uint64(unsafe.Sizeof(des.Record{}))
)

// ForkStats reports what arming a fork cost: BytesCopied counts the
// pending events outside the shared schedule (a queued record each; a
// filler's reservation counts as one, for its arena entry), the live
// jobs' slots and the outcome entries up to the last job arrived.
// Nothing is copied later — a fork borrows only the arrival schedule,
// which never migrates.
type ForkStats struct {
	BytesCopied uint64
}

// ForkStats returns the copy accounting of a forked engine; zero on
// ordinary engines.
func (e *Engine) ForkStats() ForkStats { return e.stats }

// Snapshot is a sealed engine state at a macro-step boundary — the
// shared source that forks branch from. The underlying engine is
// frozen: it rejects Run/RunEvents and the mutation APIs until Reset
// un-seals it (all outstanding forks must have finished by then; forks
// read the snapshot's state concurrently and lock-free). Snapshots are
// safe for concurrent ForkInto calls from multiple goroutines.
type Snapshot struct {
	e *Engine
}

// Events returns the number of events fired up to the snapshot point.
func (s *Snapshot) Events() uint64 { return s.e.q.Fired() }

// Time returns the simulated time at the snapshot point.
func (s *Snapshot) Time() float64 { return s.e.clock.Now() }

// Done reports whether the replay had already completed when sealed
// (forks then produce the finished Result immediately — unless revived
// by InjectJob).
func (s *Snapshot) Done() bool { return s.e.remaining == 0 }

// Snapshot seals the engine at its current macro-step boundary and
// returns the immutable fork source. An idle engine is started first
// (arrivals pushed, nothing fired), so a t=0 snapshot is well-defined;
// a completed engine seals its final state. Sealing a fork first takes
// private copies of what it borrows (the arrival schedule, the ID map)
// so the new snapshot is self-contained and its own source is released.
// Snapshot is idempotent: sealing twice returns the same *Snapshot.
func (e *Engine) Snapshot() (*Snapshot, error) {
	switch e.state {
	case runSealed:
		return e.snap, nil
	case runIdle:
		if err := e.start(nil, false); err != nil {
			return nil, err
		}
	case runDone:
		// Run gave the outcome array away with its Result.
		e.out = slices.Clone(e.out)
	}
	if e.src != nil {
		e.arrivals = e.q.OwnSchedule(e.arrivals)
		if e.sharedIndex {
			e.indexOf, e.sharedIndex = maps.Clone(e.indexOf), false
		}
		e.src = nil
	}
	e.compactActive() // forks copy the queue as sealed: make it exact
	e.state = runSealed
	e.snap = &Snapshot{e: e}
	return e.snap, nil
}

// forkJob arms a slot of this engine as the copy of the snapshot's live
// job s: the retry queue and the running-map table get owned copies —
// plain values; the seqs in them (and in the job's fillers) name the same
// events in this engine's cloned queue — and the outcome pointer moves to
// this engine's array.
func (e *Engine) forkJob(s *simJob) *simJob {
	sj := e.newSlot()
	retry, running := sj.retryMaps[:0], sj.runningMaps
	*sj = *s
	sj.retryMaps = append(retry, s.retryMaps...)
	if s.runningMaps == nil {
		running = nil
	} else if running == nil {
		running = maps.Clone(s.runningMaps)
	} else {
		clear(running)
		maps.Copy(running, s.runningMaps)
	}
	sj.runningMaps = running
	e.slotOf[sj.pos] = sj
	sj.out = &e.out[sj.pos]
	return sj
}

// ForkOptions parameterizes one fork off a snapshot.
type ForkOptions struct {
	// Policy is the fork's scheduling policy instance. Nil shares the
	// snapshot's policy — right for the stateless built-in values (FIFO,
	// MaxEDF, MinEDF, Fair, Capacity; each fork builds its own
	// scheduling index for them), while a policy carrying mutable state
	// of its own (DynamicPriority) needs an instance per fork. To
	// *change* policy at the branch point, fork with the old policy and
	// call SetPolicy on the fork — that re-admits jobs under the new
	// policy exactly like a from-scratch replay switching at the same
	// event would.
	Policy sched.Policy
	// Sink receives the fork's own event stream (suffix only — the
	// shared prefix was observed by the snapshot engine's sink) and the
	// RunEnd counters, which cover the whole logical replay. One sink
	// per fork (obs.Sink contract).
	Sink obs.Sink
}

// ForkInto arms dst as a branch of the snapshot, recycling dst's
// warmed storage exactly like Reset does — the pooled-fork path. dst
// resumes from the snapshot's macro-step boundary: same clock, same
// pending events (cloned), same per-job progress (live slots and
// outcomes so far, copied), same policy decisions ahead of it. Index
// state (the scheduling index, the preemption index) is rebuilt from the
// forked queue in O(active · log) rather than cloned — rebuild benches
// faster than an O(index-size) deep clone at replay scale and needs no
// clone hooks; the fork differential suite pins its equivalence.
func (s *Snapshot) ForkInto(dst *Engine, opts ForkOptions) error {
	src := s.e
	if dst == src {
		return fmt.Errorf("engine: cannot fork a snapshot into its own source engine")
	}
	if dst.state == runSealed {
		return fmt.Errorf("engine: fork destination is sealed by Snapshot; Reset it first")
	}
	policy := opts.Policy
	if policy == nil {
		policy = src.policy
	}

	// Scalar replay state, counters included, so the fork's RunEnd
	// totals match a from-scratch replay's.
	dst.release()
	dst.cfg = src.cfg
	dst.setSink(opts.Sink) // and an empty block: the prefix's events are the prefix sink's
	dst.setPolicy(policy)
	dst.clock = src.clock
	dst.freeMap = src.freeMap
	dst.freeReduce = src.freeReduce
	dst.peakMap, dst.peakReduce = src.peakMap, src.peakReduce
	dst.remaining = src.remaining
	dst.makespan = src.makespan
	dst.arrivalSeq = src.arrivalSeq
	dst.preemptions = src.preemptions
	dst.fillerPatches = src.fillerPatches
	dst.mapSlotAllocs = src.mapSlotAllocs
	dst.reduceSlotAllocs = src.reduceSlotAllocs
	dst.state = runStarted
	dst.snap = nil

	// Pending events: the queued ones copied into dst's own lanes, seq
	// for seq; un-arrived jobs stay in the snapshot's schedule, shared.
	src.q.CloneInto(&dst.q)

	// The replay's jobs: the trace and the ID map are shared read-only
	// (InjectJob copies the map on write), injected jobs and deadline
	// overrides are few and copied.
	dst.src = s
	dst.tr = src.tr
	dst.extra = append(dst.extra, src.extra...)
	dst.indexOf, dst.idBase = src.indexOf, src.idBase
	dst.sharedIndex = src.indexOf != nil
	dst.deadlines = maps.Clone(src.deadlines)

	// Outcomes so far, then the live jobs in queue order — the snapshot
	// is compacted, so its slots are exactly those — into dst's own slots.
	n := len(src.out)
	dst.slotOf = resized(dst.slotOf, n)
	dst.out = make([]JobOutcome, n)
	dst.outHi = copy(dst.out, src.out[:src.outHi])
	dst.fillers = append(dst.fillers, src.fillers...)
	dst.fillerFree = src.fillerFree
	for _, sj := range src.slots {
		c := dst.forkJob(sj)
		dst.active = append(dst.active, &c.info)
		dst.slots = append(dst.slots, c)
	}
	dst.live = len(dst.active)
	dst.stats = ForkStats{
		BytesCopied: uint64(dst.q.Len()-dst.q.Preloaded())*eventBytes +
			uint64(dst.live)*jobBytes + uint64(dst.outHi)*outcomeBytes,
	}

	// Scheduling index: setPolicy left dst's own index empty; rebuild it
	// by re-admitting the active jobs in queue order. Re-admission is
	// idempotent — OnJobAdmit sizing (MinEDF) is a deterministic function
	// of the copied JobInfo, and tournament winners are insertion-order
	// independent — so the rebuilt index answers exactly as the
	// snapshot's did.
	if dst.batch != nil {
		for _, info := range dst.active {
			dst.batch.OnJobAdmit(info, dst.cfg.MapSlots, dst.cfg.ReduceSlots)
		}
	}
	dst.resetPreemptIdx()
	if dst.preemptIdx != nil {
		for _, sj := range dst.slots {
			dst.preemptIdx.Add(&sj.info, sj.preemptible())
		}
	}
	return nil
}

// Fork builds a fresh branch engine off the snapshot. See ForkInto.
func (s *Snapshot) Fork(opts ForkOptions) (*Engine, error) {
	dst := &Engine{}
	if err := s.ForkInto(dst, opts); err != nil {
		return nil, err
	}
	return dst, nil
}

// Fork seals the engine (Snapshot) and branches once off it — the
// one-shot convenience; fan-outs take the Snapshot and fork it K
// times, ideally through Pool.Fork.
func (e *Engine) Fork(opts ForkOptions) (*Engine, error) {
	s, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.Fork(opts)
}

// Fork arms a pooled engine as a branch of the snapshot: Get the
// warmed engine, ForkInto it. Put it back after the branch's Run as
// usual. Safe for concurrent use like the rest of Pool.
func (p *Pool) Fork(s *Snapshot, opts ForkOptions) (*Engine, error) {
	if e := p.take(); e != nil {
		if err := s.ForkInto(e, opts); err != nil {
			return nil, err
		}
		return e, nil
	}
	return s.Fork(opts)
}

// mutable gates the what-if mutation APIs: they apply to a paused
// in-flight run — typically a fresh fork, before its Run — never to an
// armed-but-unstarted, finished, or sealed engine.
func (e *Engine) mutable(op string) error {
	if e.state != runStarted {
		return fmt.Errorf("engine: %s requires a paused run (fork the engine or call RunEvents first)", op)
	}
	return nil
}

// SetDeadline moves the completion deadline of a job that has not yet
// arrived (deadline 0 removes it) — the "what if this job's deadline
// were tighter" branch mutation; the job's arrival arms it under the new
// deadline. Jobs already admitted keep the deadline their scheduling
// decisions were made under; replaying a changed deadline for those
// requires branching before their arrival.
func (e *Engine) SetDeadline(jobID int, deadline float64) error {
	if err := e.mutable("SetDeadline"); err != nil {
		return err
	}
	p, ok := e.jobLookup(jobID)
	if !ok {
		return fmt.Errorf("engine: SetDeadline: no job %d in this replay", jobID)
	}
	arrival := e.jobAt(p).Arrival
	if e.arrived(p) {
		return fmt.Errorf("engine: SetDeadline: job %d already arrived at t=%.3f; branch before its arrival to change its deadline", jobID, arrival)
	}
	if math.IsNaN(deadline) || deadline < 0 || (deadline > 0 && deadline < arrival) {
		return fmt.Errorf("engine: SetDeadline: deadline %v invalid for job %d arriving at %v", deadline, jobID, arrival)
	}
	if e.deadlines == nil {
		e.deadlines = make(map[int]float64)
	}
	e.deadlines[p] = deadline
	return nil
}

// InjectJob adds a job arrival at or after the pause point — the "what
// if another job showed up" branch mutation. The job joins the replay
// exactly as a traced arrival would: its arrival event enters the
// queue with the next sequence number, so two engines injecting the
// same job at the same pause point stay byte-identical. The template
// is treated read-only like the trace's. Injecting into a completed
// replay revives it: the next Run continues with the new arrival.
func (e *Engine) InjectJob(j *trace.Job) error {
	if err := e.mutable("InjectJob"); err != nil {
		return err
	}
	if j == nil || j.Template == nil {
		return fmt.Errorf("engine: InjectJob: nil job or template")
	}
	if err := j.Template.Validate(); err != nil {
		return fmt.Errorf("engine: InjectJob: %w", err)
	}
	if math.IsNaN(j.Arrival) || j.Arrival < e.clock.Now() {
		return fmt.Errorf("engine: InjectJob: arrival %v is in the simulated past (now %v)", j.Arrival, e.clock.Now())
	}
	if j.Deadline < 0 || (j.Deadline > 0 && j.Deadline < j.Arrival) {
		return fmt.Errorf("engine: InjectJob: deadline %v before arrival %v", j.Deadline, j.Arrival)
	}
	if j.Template.NumReduces > 0 && e.cfg.ReduceSlots == 0 {
		return fmt.Errorf("engine: InjectJob: job %d needs reduce slots but cluster has none", j.ID)
	}
	if _, exists := e.jobLookup(j.ID); exists {
		return fmt.Errorf("engine: InjectJob: job ID %d already in the replay", j.ID)
	}
	e.ownIndex()

	// The job takes the next position; its arrival event arms it like any
	// other. Growing the outcome array moves it: re-point the live jobs.
	p := len(e.out)
	if p == cap(e.out) {
		e.out = slices.Grow(e.out, 1)
		for _, sj := range e.slots {
			sj.out = &e.out[sj.pos]
		}
	}
	e.out = append(e.out, JobOutcome{})
	e.slotOf = append(e.slotOf, nil)
	e.extra = append(e.extra, *j)
	e.indexOf[j.ID] = p
	e.remaining++
	e.q.Push(j.Arrival, evJobArrival, j.ID, 0)
	return nil
}

// ownIndex materializes an engine-owned indexOf map covering the
// replay's jobs, replacing the dense-dispatch nil or a map borrowed from
// a fork source. Cold path: only InjectJob needs it.
func (e *Engine) ownIndex() {
	switch {
	case e.indexOf == nil:
		e.indexOf = make(map[int]int, len(e.out)+1)
		for i := range e.tr.Jobs {
			e.indexOf[e.idBase+i] = i // dense dispatch: ID == position + idBase by Reset's check
		}
	case e.sharedIndex:
		e.indexOf = maps.Clone(e.indexOf)
	}
	e.sharedIndex = false
}

// SetPolicy swaps the scheduling policy at the pause point — the
// "what if we ran MaxEDF from here on" branch mutation. Active jobs
// are re-admitted under the new policy as if they had just arrived:
// their WantedMaps/WantedReduces sizing is cleared and re-derived by
// the new policy's hooks, and the scheduling index is rebuilt in queue
// order. The instance must be fresh for stateful policies.
func (e *Engine) SetPolicy(p sched.Policy) error {
	if err := e.mutable("SetPolicy"); err != nil {
		return err
	}
	if p == nil {
		return fmt.Errorf("engine: SetPolicy: nil policy")
	}
	e.setPolicy(p)
	e.compactActive()
	for _, info := range e.active {
		info.WantedMaps, info.WantedReduces = 0, 0
	}
	if e.batch != nil {
		for _, info := range e.active {
			e.batch.OnJobAdmit(info, e.cfg.MapSlots, e.cfg.ReduceSlots)
		}
	} else if e.arrive != nil {
		for _, info := range e.active {
			e.arrive.OnJobArrival(info, e.cfg.MapSlots, e.cfg.ReduceSlots)
		}
	}
	return nil
}
