package sched

import "unsafe"

// This file implements the incrementally maintained ordered index behind
// the engine's scheduling index (DESIGN.md §11): winner trees (complete
// binary tournaments) over the active jobs with an eligibility bitset at
// the leaves.
//
// Why a tournament and not a heap or a sorted ring: a job's *key* is
// static for FIFO and the EDF family (arrival, deadline) but its
// *eligibility* flips constantly — pending tasks run out, reduce
// slowstart gates open, MinEDF caps fill up, preemption hands map tasks
// back. A heap ordered by key would have to pop-and-stash ineligible
// winners on every query; an arrival ring would have to rescan past
// head-of-line jobs that are active but currently ineligible. The
// tournament keeps both updates O(log n) and the winner O(1): each leaf
// is one job plus an eligibility bit, each internal node caches the
// better of its children's winners (ineligible leaves lose to anything),
// and a key or eligibility change only recomputes the leaf's root path —
// and only as far up as the winner actually changes, so at the small
// queues of a sparse replay most updates touch one or two nodes.
// Fair's fully dynamic key (running-task count) fits the same mold
// because every counter change already flows through a Fix call.

// Line isolation. An index is hammered by exactly one engine — every
// event rewrites a grant slice header, an eligibility word, a few tree
// nodes — and engines now live in a process-wide pool (engine.Shared),
// so the second engine of a parallel sweep is often built long after the
// first, by whichever goroutine needed it, out of the same allocator
// spans. Left to the size classes, one engine's 216-byte Tournament or
// 8-byte eligibility word then sits in the same cache line as another's,
// and two cores replaying unrelated cells invalidate each other on every
// event (measured: a 2-worker sweep twice as expensive in CPU time).
//
// The unit kept apart is a pair of lines, not one. The L2 spatial
// prefetcher of the x86 parts this runs on fetches lines in 128-byte
// aligned pairs, so a miss on one engine's line pulls in its buddy too,
// and when the buddy is another engine's index state that core loses
// ownership of it just as if the line were shared. With 64-byte units
// the cost depended on where the allocator happened to put the second
// engine — a lottery drawn once per process, since pooled engines never
// move: two engines built back to back by one goroutine ran the 2-worker
// sweep 3–9 % slower than two built on different Ps (paired in-process
// comparison, six processes), and within ±1 % of them at 128.
//
// The fix needs no alignment primitive: Go carves a span into equal
// slots starting at a page boundary, every multiple of 128 up to 1024 B
// is a size class and every larger class is a multiple of 128, so a
// request that is a whole number of units gets a slot of whole units and
// shares them with nobody. Every allocation an index makes is therefore
// rounded up to whole units: slices through lineSlice, the structs
// through the padded *Block wrappers. TestIndexIsolation fails if an
// allocation slips past this.
const isolationUnit = 128

// lineSlice returns make([]T, n, c) for the smallest c ≥ max(n, 1) whose
// backing array is a whole number of isolation units. Slices grown by
// append from such a start stay whole: append doubles, and past 1024 B
// the allocator's classes are unit multiples already.
func lineSlice[T any](n int) []T {
	var z T
	c := max(n, 1)
	for uintptr(c)*unsafe.Sizeof(z)%isolationUnit != 0 {
		c++
	}
	return make([]T, n, c)
}

// tournamentBlock is the allocation unit of a Tournament: the struct
// padded to whole isolation units (see lineSlice).
type tournamentBlock struct {
	Tournament
	_ [(isolationUnit - unsafe.Sizeof(Tournament{})%isolationUnit) % isolationUnit]byte
}

// Lane names which of a JobInfo's leaf handles a Tournament owns. A job
// sits in at most one tournament per lane at a time; the handle makes
// the job→leaf lookup a field read instead of a map probe.
type Lane uint8

const (
	// LaneSched belongs to the scheduling index (batch.go).
	LaneSched Lane = iota
	// LaneAux is free for the tournament's other user, the engine's
	// preemption victim index.
	LaneAux
	numLanes
)

// Order is one ranking of a Tournament's jobs: Better reports whether a
// should win over b (both non-nil, both eligible) and must be a strict
// total order over distinct jobs (every built-in comparator ends with
// the job ID), so the winner never depends on insertion order or leaf
// layout. Static promises Better's verdict on two indexed jobs never
// changes while both stay indexed (FIFO and the EDF family; not Fair),
// which lets Fix return without touching the tree when eligibility held.
//
// Eligibility — what gates a job in and out of contention under a
// ranking without removing it — is not the tree's to work out: whoever
// calls Add and Fix has the job's state at hand and passes the verdict,
// one bool per ranking, in ranking order.
type Order struct {
	Better func(a, b *JobInfo) bool
	Static bool
}

// winnerTree is one Order's tree over the tournament's shared leaves.
type winnerTree struct {
	Order
	win  []int32  // 1-based; win[size+i] is leaf i; -1 = no winner
	elig []uint64 // eligibility bitset over leaf slots
}

// maxOrders bounds the rankings one Tournament maintains: the scheduling
// index keeps two (map slots, reduce slots), the preemption index one.
const maxOrders = 2

// Tournament is a winner-tree index over a mutating set of jobs, ranked
// under one or two Orders at once: the jobs, their leaf slots and the
// job→leaf lookup are shared, so keeping a second ranking costs one more
// tree, not one more index. The zero value is not ready; build with
// NewTournament. It is not safe for concurrent use — like the engine
// that owns it, it is single-goroutine state.
type Tournament struct {
	lane  Lane
	n     int // rankings in use
	trees [maxOrders]winnerTree

	size  int        // leaf capacity, always a power of two
	jobs  []*JobInfo // leaf occupancy
	free  []int32    // recycled leaf slots
	next  int32      // next never-used leaf slot
	count int
}

// minTournamentSize keeps the trees deep enough that growth is rare for
// small queues without wasting memory on tiny runs.
const minTournamentSize = 16

// NewTournament builds an empty index on the given lane, ranked under
// each of orders (one or two); Best(k) answers under orders[k].
func NewTournament(lane Lane, orders ...Order) *Tournament {
	t := &new(tournamentBlock).Tournament
	t.lane, t.n = lane, len(orders)
	t.free = lineSlice[int32](0)
	for k, o := range orders {
		t.trees[k].Order = o
	}
	t.alloc(minTournamentSize)
	return t
}

// alloc sizes the leaf and tree arrays for the given leaf capacity.
func (t *Tournament) alloc(size int) {
	t.size = size
	t.jobs = lineSlice[*JobInfo](size)
	for k := 0; k < t.n; k++ {
		tr := &t.trees[k]
		tr.win = lineSlice[int32](2 * size)
		for i := range tr.win {
			tr.win[i] = -1
		}
		tr.elig = lineSlice[uint64]((size + 63) / 64)
	}
}

// Reset empties the index, retaining its warmed capacity (the engine
// reuse contract: a reset tournament is observationally identical to a
// fresh one). A tournament every job has been removed from — the state
// a completed replay leaves — is already clean, so re-arming a pooled
// engine does not pay for the deepest queue it has ever seen.
func (t *Tournament) Reset() {
	if t.count > 0 {
		used := int(t.next)
		clear(t.jobs[:used])
		for k := 0; k < t.n; k++ {
			tr := &t.trees[k]
			clear(tr.elig[:(used+63)/64])
			for i := range tr.win {
				tr.win[i] = -1
			}
		}
	}
	t.free = t.free[:0]
	t.next = 0
	t.count = 0
}

// reorder swaps ranking k's ordering on an empty tournament — how one
// index is re-armed for a different policy without reallocating.
func (t *Tournament) reorder(k int, better func(a, b *JobInfo) bool, static bool) {
	t.trees[k].Better, t.trees[k].Static = better, static
}

// Len returns the number of jobs in the index (eligible or not).
func (t *Tournament) Len() int { return t.count }

// slot returns j's leaf. The handle on the job is only a hint: it is
// trusted when the leaf it names holds this very *JobInfo, so a handle
// left over from an earlier index, or copied along with its job into a
// forked engine's slab, reads as "not indexed".
func (t *Tournament) slot(j *JobInfo) (int32, bool) {
	s := j.leaf[t.lane] - 1
	if uint32(s) < uint32(len(t.jobs)) && t.jobs[s] == j {
		return s, true
	}
	return 0, false
}

// Add inserts a job, eligible[k] saying whether it contends under
// ranking k (idempotent: re-adding an indexed job refreshes it).
func (t *Tournament) Add(j *JobInfo, eligible ...bool) {
	s, ok := t.slot(j)
	if !ok {
		if n := len(t.free); n > 0 {
			s = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			if int(t.next) == t.size {
				t.grow()
			}
			s = t.next
			t.next++
		}
		t.jobs[s] = j
		j.leaf[t.lane] = s + 1
		t.count++
	}
	for k, now := range eligible {
		t.trees[k].refresh(t, s, now)
	}
}

// Remove deletes a job from the index; unknown jobs are a no-op.
func (t *Tournament) Remove(j *JobInfo) {
	s, ok := t.slot(j)
	if !ok {
		return
	}
	t.jobs[s] = nil
	j.leaf[t.lane] = 0
	t.free = append(t.free, s)
	t.count--
	for k := 0; k < t.n; k++ {
		tr := &t.trees[k]
		if bit := uint64(1) << (s & 63); tr.elig[s>>6]&bit != 0 {
			tr.elig[s>>6] &^= bit
			tr.sift(t, s)
		}
	}
}

// Fix re-ranks a job after its scheduler-visible counters changed:
// eligible[k] is its eligibility under ranking k now, and its key may
// have moved. Unknown jobs are a no-op.
func (t *Tournament) Fix(j *JobInfo, eligible ...bool) {
	if s, ok := t.slot(j); ok {
		for k, now := range eligible {
			t.trees[k].refresh(t, s, now)
		}
	}
}

// FixOrder is Fix for a change that can only matter to ranking k.
func (t *Tournament) FixOrder(k int, j *JobInfo, eligible bool) {
	if s, ok := t.slot(j); ok {
		t.trees[k].refresh(t, s, eligible)
	}
}

// Best returns the winning (eligible, minimal-under-Better) job of
// ranking k, or nil.
func (t *Tournament) Best(k int) *JobInfo {
	if r := t.trees[k].win[1]; r >= 0 {
		return t.jobs[r]
	}
	return nil
}

// refresh records a leaf's eligibility and, when the tree can have
// changed, rebuilds its root path. It cannot have when the leaf stayed
// out of contention, nor when it stayed in under a static key. (A
// freshly claimed leaf's bit is clear: Remove and Reset leave it so.)
func (tr *winnerTree) refresh(t *Tournament, s int32, now bool) {
	w, bit := s>>6, uint64(1)<<(s&63)
	was := tr.elig[w]&bit != 0
	if was == now && (tr.Static || !now) {
		return
	}
	if now {
		tr.elig[w] |= bit
	} else {
		tr.elig[w] &^= bit
	}
	tr.sift(t, s)
}

// sift rebuilds the winner path from a leaf toward the root, stopping
// at the first ancestor whose winner is unchanged and is some other
// leaf: nothing above it compared against the touched leaf, so nothing
// above it can change. An unchanged winner that *is* the touched leaf
// must keep climbing — its key may have moved (Fair).
func (tr *winnerTree) sift(t *Tournament, s int32) {
	v := int(s) + t.size
	if tr.elig[s>>6]&(1<<(s&63)) != 0 {
		tr.win[v] = s
	} else {
		tr.win[v] = -1
	}
	for v >>= 1; v >= 1; v >>= 1 {
		w := tr.merge(t, tr.win[2*v], tr.win[2*v+1])
		if w == tr.win[v] && w != s {
			return
		}
		tr.win[v] = w
	}
}

// merge picks the winner of two subtree winners (-1 loses to anything).
func (tr *winnerTree) merge(t *Tournament, a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if tr.Better(t.jobs[b], t.jobs[a]) {
		return b
	}
	return a
}

// grow doubles the leaf capacity, preserving slot assignments (the
// jobs' leaf handles stay valid) and rebuilding the winner trees
// bottom-up.
func (t *Tournament) grow() {
	oldJobs, oldSize := t.jobs, t.size
	var oldElig [maxOrders][]uint64
	for k := 0; k < t.n; k++ {
		oldElig[k] = t.trees[k].elig
	}
	t.alloc(2 * oldSize)
	copy(t.jobs, oldJobs)
	for k := 0; k < t.n; k++ {
		tr := &t.trees[k]
		copy(tr.elig, oldElig[k])
		for i := 0; i < oldSize; i++ {
			if tr.elig[i>>6]&(1<<(i&63)) != 0 {
				tr.win[t.size+i] = int32(i)
			}
		}
		for v := t.size - 1; v >= 1; v-- {
			tr.win[v] = tr.merge(t, tr.win[2*v], tr.win[2*v+1])
		}
	}
}
