package sched

import (
	"math/bits"
	"unsafe"
)

// This file implements the incrementally maintained ordered index behind
// the engine's scheduling index (DESIGN.md §11): an eligibility bitset
// over the active jobs' leaf slots and, past its starting capacity,
// winner trees (complete binary tournaments) over it.
//
// Why a tournament and not a heap or a sorted ring: a job's *key* is
// static for FIFO and the EDF family (arrival, deadline) but its
// *eligibility* flips constantly — pending tasks run out, reduce
// slowstart gates open, MinEDF caps fill up, preemption hands map tasks
// back. A heap ordered by key would have to pop-and-stash ineligible
// winners on every query; an arrival ring would have to rescan past
// head-of-line jobs that are active but currently ineligible. Each leaf
// is one job plus an eligibility bit. Up to flatLeaves leaves there is
// no tree, only its root: a touched leaf has only to beat the winner,
// and a touched winner is found again among the set bits — at the
// handful of jobs a sparse replay keeps active, a tree's re-sift on
// every flip cost more than that scan. Past flatLeaves, each internal
// node caches the better of its children's winners (ineligible leaves
// lose to anything), and a key or eligibility change recomputes the
// leaf's root path, O(log n), only as far up as the winner actually
// changes. Either way Best reads the root: O(1). Fair's fully dynamic key (running-task
// count) fits the same mold because every counter change already flows
// through a Fix call.

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
	win  []int32  // 1-based; win[size+i] is leaf i; -1 = no winner; flat: win[1] only
	elig []uint64 // eligibility bitset over leaf slots
}

// maxOrders bounds the rankings one Tournament maintains: the scheduling
// index keeps two (map slots, reduce slots), the preemption index one.
const maxOrders = 2

// Tournament is a winner-tree index over a mutating set of jobs, ranked
// under one or two Orders at once: the jobs, their leaf slots and the
// job→leaf lookup are shared, so keeping a second ranking costs one more
// bitset and tree, not one more index. The zero value is not ready;
// build with NewTournament. It is not safe for concurrent use — like
// the engine that owns it, it is single-goroutine state.
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

// minTournamentSize keeps growth rare for small queues without wasting
// memory on tiny runs. Up to flatLeaves leaves a tournament keeps no
// trees, and a Reset one keeps its capacity and so its mode. A scan
// costs a comparison per eligible job: per grant, flat is 8–38 %
// cheaper than the tree at 4 eligible jobs, −5 to +20 % at 8 and
// 40–53 % dearer at 16, and a flat word of 64 leaves costs 2.7–5.3
// times the tree at 48–64 jobs, so only the starting capacity is flat.
const (
	minTournamentSize = 16
	flatLeaves        = minTournamentSize
)

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
		n := 2 * size
		if size <= flatLeaves {
			n = 2 // the root alone
		}
		tr.win = lineSlice[int32](n)
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
// must keep climbing — its key may have moved (Fair). A flat tournament
// has only the root: a touched winner is looked for again among the set
// bits, and any other touched leaf has only to beat it.
func (tr *winnerTree) sift(t *Tournament, s int32) {
	if t.size <= flatLeaves {
		r := tr.win[1]
		if r == s {
			r = -1
			for w := tr.elig[0]; w != 0; w &= w - 1 {
				r = tr.merge(t, r, int32(bits.TrailingZeros64(w)))
			}
		} else if tr.elig[0]&(1<<s) != 0 {
			r = tr.merge(t, r, s)
		}
		tr.win[1] = r
		return
	}
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
// bottom-up from the eligibility bits. It always leaves a tree: a flat
// tournament is one at its starting capacity.
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
