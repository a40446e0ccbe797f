package sched

import "unsafe"

// This file is the engine's scheduling index (DESIGN.md §11). The
// paper's engine asks the policy for one job per free slot after every
// event; with the built-in policies' O(active-jobs) argmin scans that
// is O(slots × jobs) per event — quadratic at multi-tenant scale. The
// built-in policy values stay what the paper describes — stateless,
// shareable, two-call — and the engine instead keeps, per engine, an
// incrementally updated Tournament index (index.go) keyed by the
// policy's ordering, which hands out all free slots in one call. The
// scan methods remain the correctness oracle: the engine's differential
// suite replays every policy on both paths and asserts byte-identical
// outcomes.

// BatchPolicy is the contract between the engine and its scheduling
// index. The engine obtains one from IndexFor and then:
//
//   - routes job lifecycle through OnJobAdmit / OnJobDepart instead of
//     the ArrivalAware hook (OnJobAdmit subsumes it — the MinEDF index
//     sizes its allocation there exactly like MinEDF.OnJobArrival);
//   - calls OnJobUpdate after every engine-side mutation of a job's
//     scheduler-visible counters that can change the index's answer, so
//     the index never goes stale: every preemption kill, and every task
//     completion of an index that ReadsRunning, of a job with a
//     WantedMaps or WantedReduces cap, or that sets ReduceReady. Under an
//     index whose rankings are static and with no cap, a completion
//     changes only running counts, which neither the rankings nor the
//     eligibility read, so the update it skips would change nothing;
//   - replaces the per-slot ChooseNext* loop with one AssignMapSlots /
//     AssignReduceSlots call per allocation round.
//
// Assign* returns the granted job IDs in assignment order and must
// increment the nominated job's ScheduledMaps / ScheduledReduces itself
// for each grant — exactly the state change the engine applies between
// successive ChooseNext* calls on the scan path — so that later grants
// in the same batch see the earlier ones. It answers from the state the
// hooks delivered; the queue argument is the engine's arrival-ordered
// job list, which may still carry jobs that have since departed and
// which the built-in indexes do not consult. The returned slice is
// valid until the next Assign* call on the same index.
//
// Rebuild contract (the engine's fork path, DESIGN.md §12): calling
// ResetQueue and then OnJobAdmit for every live job in queue order —
// even jobs mid-flight, with nonzero progress counters — must yield an
// index that answers every Assign* query exactly like the instance that
// was maintained incrementally through the full hook stream. This holds
// because admit derives everything from the job's current JobInfo:
// sizing (MinEDF) is a pure function of Arrival/Deadline/Profile/slot
// totals, queue loads (Capacity) fold in the job's current running
// counts, and tournament answers are insertion-order independent
// (comparators break all ties down to job ID). TestIndexRebuildEquivalence
// pins it; the engine's fork differential suite enforces it end to end.
//
// An index is per-engine mutable state, never shared.
type BatchPolicy interface {
	OnJobAdmit(j *JobInfo, totalMapSlots, totalReduceSlots int)
	OnJobDepart(j *JobInfo)
	OnJobUpdate(j *JobInfo)
	ResetQueue()
	// ReadsRunning reports whether the index's rankings read a job's
	// running task counts (Fair's, Capacity's queue loads), so that every
	// task completion must reach it.
	ReadsRunning() bool

	AssignMapSlots(q []*JobInfo, n int) []int
	AssignReduceSlots(q []*JobInfo, n int) []int
}

// IndexFor returns an empty scheduling index that decides exactly like
// the stateless built-in policy value p — FIFO, MaxEDF, MinEDF (any
// estimator), Fair, Capacity — or nil for any other policy
// (DynamicPriority, user-defined, wrapped), which the engine then
// drives through the paper's two-call interface. prev, when non-nil, is
// an index an earlier IndexFor call returned to the same owner; it is
// recycled when its shape fits, so a pooled engine re-armed under a
// different policy keeps its warmed trees.
func IndexFor(p Policy, prev BatchPolicy) BatchPolicy {
	switch pp := p.(type) {
	case FIFO:
		return jobIndexFor(prev, byArrival, byArrival, true)
	case MaxEDF:
		return jobIndexFor(prev, byDeadline, byDeadline, true)
	case MinEDF:
		ix := jobIndexFor(prev, byDeadline, byDeadline, true)
		ix.sized, ix.estimate = true, pp.Estimate
		return ix
	case Fair:
		return jobIndexFor(prev, fairMapBetter, fairReduceBetter, false)
	case Capacity:
		return capacityIndexFor(prev, pp)
	default:
		return nil
	}
}

// The two rankings every scheduling index keeps over its jobs.
const (
	forMaps    = 0 // who gets the next map slot
	forReduces = 1 // who gets the next reduce slot
)

// newSlotTournament builds the tournament both index types are made of:
// jobs ranked for map slots and for reduce slots.
func newSlotTournament(mapBetter, redBetter func(a, b *JobInfo) bool, static bool) *Tournament {
	return NewTournament(LaneSched,
		Order{Better: mapBetter, Static: static},
		Order{Better: redBetter, Static: static})
}

// wants reports whether j can use one more slot of the given kind — the
// eligibility the scan policies filter on.
func wants(j *JobInfo, kind int) bool {
	if kind == forMaps {
		return j.wantsMapSlot()
	}
	return j.wantsReduceSlot()
}

// grant applies n slot grants of the given kind to j's counters — the
// increments the engine makes between ChooseNext* calls on the scan path.
func grant(j *JobInfo, kind, n int) {
	if kind == forMaps {
		j.ScheduledMaps += n
	} else {
		j.ScheduledReduces += n
	}
}

// room is how many more slots of the given kind an eligible j can use
// before wants turns false: its pending tasks, capped by its wanted
// allocation (MinEDF) less its running ones.
func room(j *JobInfo, kind int) int {
	pending, running, wanted := j.PendingMaps(), j.RunningMaps(), j.WantedMaps
	if kind == forReduces {
		pending, running, wanted = j.PendingReduces(), j.RunningReduces(), j.WantedReduces
	}
	if wanted > 0 {
		return min(pending, wanted-running)
	}
	return pending
}

// jobIndex is one tournament over the active jobs — the whole index for
// every single-queue policy, which differ only in their comparator pair
// and in whether admission first sizes the job's allocation (MinEDF,
// per estimator).
type jobIndex struct {
	t        *Tournament
	sized    bool
	running  bool // the rankings read running counts (Fair): not static
	estimate Estimator
	grants   []int
}

// jobIndexBlock and capacityIndexBlock pad the index structs to whole
// isolation units, like tournamentBlock (index.go, "Line isolation"): assign
// rewrites the grants slice header on every allocation round.
type jobIndexBlock struct {
	jobIndex
	_ [(isolationUnit - unsafe.Sizeof(jobIndex{})%isolationUnit) % isolationUnit]byte
}

type capacityIndexBlock struct {
	capacityIndex
	_ [(isolationUnit - unsafe.Sizeof(capacityIndex{})%isolationUnit) % isolationUnit]byte
}

func jobIndexFor(prev BatchPolicy, mapBetter, redBetter func(a, b *JobInfo) bool, static bool) *jobIndex {
	ix, ok := prev.(*jobIndex)
	if ok {
		ix.ResetQueue()
		ix.t.reorder(forMaps, mapBetter, static)
		ix.t.reorder(forReduces, redBetter, static)
	} else {
		ix = &new(jobIndexBlock).jobIndex
		ix.t = newSlotTournament(mapBetter, redBetter, static)
		ix.grants = lineSlice[int](0)
	}
	ix.sized, ix.running = false, !static
	return ix
}

// OnJobAdmit implements BatchPolicy.
func (ix *jobIndex) OnJobAdmit(j *JobInfo, totalMapSlots, totalReduceSlots int) {
	if ix.sized {
		MinEDF{Estimate: ix.estimate}.OnJobArrival(j, totalMapSlots, totalReduceSlots)
	}
	ix.t.Add(j, j.wantsMapSlot(), j.wantsReduceSlot())
}

// OnJobDepart implements BatchPolicy.
func (ix *jobIndex) OnJobDepart(j *JobInfo) { ix.t.Remove(j) }

// OnJobUpdate implements BatchPolicy.
func (ix *jobIndex) OnJobUpdate(j *JobInfo) { ix.t.Fix(j, j.wantsMapSlot(), j.wantsReduceSlot()) }

// ResetQueue implements BatchPolicy.
func (ix *jobIndex) ResetQueue() { ix.t.Reset() }

// ReadsRunning implements BatchPolicy.
func (ix *jobIndex) ReadsRunning() bool { return ix.running }

// assign grants up to n slots of one kind: take the winner, count the
// grants, re-rank it. A grant of one kind never changes the other
// ranking's eligibility or keys. Under a static ranking a grant touches
// no key and no other leaf, so the winner stays the winner until it
// wants no more: it takes all the slots it has room for at once. Fair's
// key is the running count a grant moves, so there it takes one.
func (ix *jobIndex) assign(kind, n int) []int {
	ix.grants = ix.grants[:0]
	for len(ix.grants) < n {
		j := ix.t.Best(kind)
		if j == nil {
			break
		}
		k := 1
		if !ix.running {
			k = min(n-len(ix.grants), room(j, kind))
		}
		grant(j, kind, k)
		ix.t.FixOrder(kind, j, wants(j, kind))
		for range k {
			ix.grants = append(ix.grants, j.ID)
		}
	}
	return ix.grants
}

// AssignMapSlots implements BatchPolicy.
func (ix *jobIndex) AssignMapSlots(_ []*JobInfo, n int) []int { return ix.assign(forMaps, n) }

// AssignReduceSlots implements BatchPolicy.
func (ix *jobIndex) AssignReduceSlots(_ []*JobInfo, n int) []int { return ix.assign(forReduces, n) }

// capacityIndex is the multi-queue variant: one arrival-ordered
// tournament per Capacity queue plus incrementally maintained per-queue
// running counts. Slot assignment picks the most underserved queue
// (smallest running/share ratio, ties by the queue head's arrival order
// — the scan's exact tie-break) and takes that queue's FIFO head:
// O(queues + log jobs) per slot instead of O(jobs). A job's queue is
// its ID modulo the queue count (Capacity.queue), as in the scan.
type capacityIndex struct {
	cfg    Capacity
	queues []capacityQueue
	grants []int
}

type capacityQueue struct {
	t     *Tournament
	share float64 // normalizing share, guarded like the scan's
	// load is the queue's running tasks per kind; run caches, per leaf
	// slot, the job's running counts last folded into it, so updates
	// are O(1) deltas.
	load [2]int
	run  [][2]int
}

func capacityIndexFor(prev BatchPolicy, cfg Capacity) *capacityIndex {
	nq := max(len(cfg.Shares), 1)
	ix, ok := prev.(*capacityIndex)
	if ok && len(ix.queues) == nq {
		ix.ResetQueue()
	} else {
		ix = &new(capacityIndexBlock).capacityIndex
		ix.queues = lineSlice[capacityQueue](nq)
		ix.grants = lineSlice[int](0)
		for qi := range ix.queues {
			ix.queues[qi].t = newSlotTournament(byArrival, byArrival, true)
			ix.queues[qi].run = lineSlice[[2]int](0)
		}
	}
	ix.cfg = cfg
	for qi := range ix.queues {
		share := 1.0
		if len(cfg.Shares) > 0 {
			if share = cfg.Shares[qi]; share <= 0 {
				share = 1e-9
			}
		}
		ix.queues[qi].share = share
	}
	return ix
}

// fold brings the queue's loads up to date with the running counts of
// the job at leaf s.
func (q *capacityQueue) fold(s int32, j *JobInfo) {
	now := [2]int{forMaps: j.RunningMaps(), forReduces: j.RunningReduces()}
	for kind, n := range now {
		q.load[kind] += n - q.run[s][kind]
	}
	q.run[s] = now
}

// OnJobAdmit implements BatchPolicy.
func (ix *capacityIndex) OnJobAdmit(j *JobInfo, _, _ int) {
	q := &ix.queues[ix.cfg.queue(j)]
	q.t.Add(j, j.wantsMapSlot(), j.wantsReduceSlot())
	s, _ := q.t.slot(j)
	for int(s) >= len(q.run) {
		q.run = append(q.run, [2]int{})
	}
	q.fold(s, j)
}

// OnJobDepart implements BatchPolicy.
func (ix *capacityIndex) OnJobDepart(j *JobInfo) {
	q := &ix.queues[ix.cfg.queue(j)]
	if s, ok := q.t.slot(j); ok {
		for kind, n := range q.run[s] {
			q.load[kind] -= n
		}
		q.run[s] = [2]int{}
		q.t.Remove(j)
	}
}

// OnJobUpdate implements BatchPolicy.
func (ix *capacityIndex) OnJobUpdate(j *JobInfo) {
	q := &ix.queues[ix.cfg.queue(j)]
	if s, ok := q.t.slot(j); ok {
		q.fold(s, j)
		q.t.Fix(j, j.wantsMapSlot(), j.wantsReduceSlot())
	}
}

// ResetQueue implements BatchPolicy.
func (ix *capacityIndex) ResetQueue() {
	for qi := range ix.queues {
		q := &ix.queues[qi]
		q.t.Reset()
		q.load = [2]int{}
		clear(q.run)
	}
}

// ReadsRunning implements BatchPolicy: the queue loads are running counts.
func (ix *capacityIndex) ReadsRunning() bool { return true }

// best returns the winning queue for one kind of slot under the scan's
// ordering — smallest running/share ratio among queues with an eligible
// job, ratio ties broken by the candidate jobs' arrival order — and its
// candidate job, or nils.
func (ix *capacityIndex) best(kind int) (*capacityQueue, *JobInfo) {
	var bestQ *capacityQueue
	var bestJ *JobInfo
	var bestRatio float64
	for qi := range ix.queues {
		q := &ix.queues[qi]
		j := q.t.Best(kind)
		if j == nil {
			continue
		}
		ratio := float64(q.load[kind]) / q.share
		if bestJ == nil || ratio < bestRatio ||
			(ratio == bestRatio && byArrival(j, bestJ)) {
			bestQ, bestJ, bestRatio = q, j, ratio
		}
	}
	return bestQ, bestJ
}

// assign grants up to n slots of one kind, one queue choice per slot:
// each grant is one more running task in the winning queue, which can
// change the next choice.
func (ix *capacityIndex) assign(kind, n int) []int {
	ix.grants = ix.grants[:0]
	for len(ix.grants) < n {
		q, j := ix.best(kind)
		if q == nil {
			break
		}
		grant(j, kind, 1)
		s, _ := q.t.slot(j)
		q.fold(s, j)
		q.t.FixOrder(kind, j, wants(j, kind))
		ix.grants = append(ix.grants, j.ID)
	}
	return ix.grants
}

// AssignMapSlots implements BatchPolicy.
func (ix *capacityIndex) AssignMapSlots(_ []*JobInfo, n int) []int { return ix.assign(forMaps, n) }

// AssignReduceSlots implements BatchPolicy.
func (ix *capacityIndex) AssignReduceSlots(_ []*JobInfo, n int) []int {
	return ix.assign(forReduces, n)
}
