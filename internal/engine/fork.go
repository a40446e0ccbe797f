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
// (SetDeadline, SetPolicy), and produce Results
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

// Snapshot seals the engine at its current macro-step boundary and
// returns the immutable fork source. An idle engine is started first
// (arrivals pushed, nothing fired), so a t=0 snapshot is well-defined;
// a completed engine seals its final state. A fork cannot be sealed: it
// borrows its source's arrival schedule and ID map, which the source's
// Reset would pull from under its own forks. Snapshot is idempotent:
// sealing twice returns the same *Snapshot.
func (e *Engine) Snapshot() (*Snapshot, error) {
	if e.src != nil {
		return nil, fmt.Errorf("engine: cannot seal a fork; seal an engine replayed from the trace instead")
	}
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
// outcomes so far, copied), same policy decisions ahead of it. The fork
// continues the snapshot's policy instance, shared: it must carry no
// mutable state of its own (the built-in values; each fork builds its
// own scheduling index for them). SetPolicy on the fork changes policy
// at the branch point exactly like a from-scratch replay switching at
// the same event would. Index state (the scheduling index, the
// preemption index) is rebuilt from the forked queue in O(active · log)
// rather than cloned — rebuild benches faster than an O(index-size)
// deep clone at replay scale and needs no clone hooks; the fork
// differential suite pins its equivalence.
func (s *Snapshot) ForkInto(dst *Engine, opts ForkOptions) error {
	src := s.e
	if dst == src {
		return fmt.Errorf("engine: cannot fork a snapshot into its own source engine")
	}
	if dst.state == runSealed {
		return fmt.Errorf("engine: fork destination is sealed by Snapshot; Reset it first")
	}

	// Scalar replay state, counters included, so the fork's RunEnd
	// totals match a from-scratch replay's.
	dst.release()
	dst.cfg = src.cfg
	dst.setSink(opts.Sink) // and an empty block: the prefix's events are the prefix sink's
	dst.setPolicy(src.policy)
	dst.clock = src.clock
	dst.freeMap = src.freeMap
	dst.freeReduce = src.freeReduce
	dst.peakMap, dst.peakReduce = src.peakMap, src.peakReduce
	dst.remaining = src.remaining
	dst.makespan = src.makespan
	dst.arrivalSeq = src.arrivalSeq
	dst.state = runStarted
	dst.snap = nil

	// Pending events: the queued ones copied into dst's own lanes, seq
	// for seq; un-arrived jobs stay in the snapshot's schedule, shared.
	src.q.CloneInto(&dst.q)

	// The replay's jobs: the trace and the ID map are shared read-only,
	// the deadline overrides are few and copied.
	dst.src = s
	dst.tr = src.tr
	dst.indexOf, dst.idBase = src.indexOf, src.idBase
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
	arrival := e.tr.Jobs[p].Arrival
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
