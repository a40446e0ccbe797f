package sched

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"simmr/internal/trace"
)

// --- Tournament unit tests against a naive reference ---------------------

// naiveBest mirrors Tournament.Best with a plain scan over the live set.
func naiveBest(jobs map[int]*JobInfo, better func(a, b *JobInfo) bool, eligible func(*JobInfo) bool) *JobInfo {
	var best *JobInfo
	for _, j := range jobs {
		if !eligible(j) {
			continue
		}
		if best == nil || better(j, best) {
			best = j
		}
	}
	return best
}

// tournamentModes are the two shapes a Tournament takes: flat (at most
// flatLeaves leaves, no winner tree) and tree. Each case is built
// in the mode it names: pad adds that many never-eligible jobs first, so
// a tree case has grown past flatLeaves before the test's own jobs
// arrive, and cap bounds the live set so a flat case never grows.
type tournamentMode struct {
	name     string
	pad, cap int
	tree     bool
}

var tournamentModes = []tournamentMode{
	{"flat", 0, flatLeaves, false},
	{"tree", flatLeaves + 1, 1 << 30, true},
}

// padTournament adds n jobs with nothing to run, ineligible under every
// ranking.
func padTournament(tour *Tournament, n int) {
	for i := 0; i < n; i++ {
		tour.Add(mkJob(1_000_000+i, 0, 0, 0, 0), false)
	}
}

// checkMode fails unless tour is in the mode the case names.
func checkMode(t *testing.T, tour *Tournament, tree bool) {
	t.Helper()
	if got := len(tour.trees[0].win) > 2; got != tree {
		t.Fatalf("tournament of %d leaves keeps a tree = %v, want %v", tour.size, got, tree)
	}
}

func TestTournamentMatchesNaiveScan(t *testing.T) {
	// grow starts flat and crosses into a tree midway.
	for _, mode := range append(slices.Clip(tournamentModes), tournamentMode{"grow", 0, 1 << 30, true}) {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			eligible := (*JobInfo).wantsMapSlot
			tour := NewTournament(LaneSched, Order{byDeadline, true})
			padTournament(tour, mode.pad)
			pad := mode.pad
			live := map[int]*JobInfo{}
			var order []*JobInfo // live jobs, for a seeded pick
			nextID := 0

			check := func(step int) {
				t.Helper()
				want := naiveBest(live, byDeadline, eligible)
				got := tour.Best(0)
				if got != want {
					t.Fatalf("step %d: Best() = %+v, naive scan wants %+v", step, got, want)
				}
				if tour.Len() != len(live)+pad {
					t.Fatalf("step %d: Len() = %d, want %d", step, tour.Len(), len(live)+pad)
				}
			}

			for step := 0; step < 5000; step++ {
				switch op := rng.Intn(10); {
				case (op < 4 || len(live) == 0) && len(live)+pad < mode.cap: // add, crossing the grow threshold often
					j := mkJob(nextID, float64(rng.Intn(3)), float64(rng.Intn(3)*100), 1+rng.Intn(5), 0)
					nextID++
					live[j.ID], order = j, append(order, j)
					tour.Add(j, j.wantsMapSlot())
				case op < 6 && len(order) > 0: // remove a random live job
					i := rng.Intn(len(order))
					delete(live, order[i].ID)
					tour.Remove(order[i])
					order = append(order[:i], order[i+1:]...)
				case len(order) > 0: // mutate a random job's counters, then Fix
					j := order[rng.Intn(len(order))]
					if rng.Intn(2) == 0 && j.ScheduledMaps < j.NumMaps {
						j.ScheduledMaps++
					} else if j.CompletedMaps < j.ScheduledMaps {
						j.CompletedMaps++
					}
					tour.Fix(j, j.wantsMapSlot())
				}
				check(step)
			}
			checkMode(t, tour, mode.tree)
		})
	}
}

// TestTournamentFairCrossesIntoTree grows a tournament under Fair's
// dynamic key from empty to 128 leaves — flat at first, past flatLeaves
// a tree built from the bits, then grown as a tree — with grants,
// completions and departures in between, and checks Best against the
// naive scan at every step.
func TestTournamentFairCrossesIntoTree(t *testing.T) {
	const admits, leaves = 120, 128
	rng := rand.New(rand.NewSource(64))
	tour := NewTournament(LaneSched, Order{fairMapBetter, false})
	live := map[int]*JobInfo{}
	var order []*JobInfo // live jobs, for a seeded pick
	crossed := -1
	for step, nextID := 0, 0; nextID < admits || step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 3 && nextID < admits: // admit
			j := mkJob(nextID, float64(rng.Intn(5)), 0, 1+rng.Intn(6), 0)
			nextID++
			live[j.ID], order = j, append(order, j)
			tour.Add(j, j.wantsMapSlot())
		case op == 3 && len(order) > 0 && rng.Intn(4) == 0: // depart
			i := rng.Intn(len(order))
			tour.Remove(order[i])
			delete(live, order[i].ID)
			order = append(order[:i], order[i+1:]...)
		case len(order) > 0: // a grant or a completion moves Fair's key
			j := order[rng.Intn(len(order))]
			if w := tour.Best(0); w != nil && rng.Intn(2) == 0 {
				j = w
			}
			if rng.Intn(2) == 0 && j.ScheduledMaps < j.NumMaps {
				j.ScheduledMaps++
			} else if j.CompletedMaps < j.ScheduledMaps {
				j.CompletedMaps++
			}
			tour.Fix(j, j.wantsMapSlot())
		}
		if want := naiveBest(live, fairMapBetter, (*JobInfo).wantsMapSlot); tour.Best(0) != want {
			t.Fatalf("step %d (%d leaves): Best = %v, naive scan wants %v", step, tour.size, tour.Best(0), want)
		}
		if crossed < 0 && tour.size > flatLeaves {
			crossed = step
		}
	}
	if crossed < 0 || tour.size != leaves {
		t.Fatalf("tournament ended at %d leaves (left flat mode at step %d), want a crossing and %d", tour.size, crossed, leaves)
	}
	checkMode(t, tour, true)
}

func TestTournamentRemoveUnknownAndReAdd(t *testing.T) {
	tour := NewTournament(LaneSched, Order{byArrival, true})
	a := mkJob(1, 1, 0, 2, 0)
	tour.Remove(a) // unknown: no-op
	tour.Add(a, a.wantsMapSlot())
	tour.Add(a, a.wantsMapSlot()) // idempotent
	if tour.Len() != 1 || tour.Best(0) != a {
		t.Fatalf("Len=%d Best=%v after double add", tour.Len(), tour.Best(0))
	}
	tour.Remove(a)
	if tour.Len() != 0 || tour.Best(0) != nil {
		t.Fatalf("Len=%d Best=%v after remove", tour.Len(), tour.Best(0))
	}
}

func TestTournamentResetKeepsCapacityDropsJobs(t *testing.T) {
	tour := NewTournament(LaneSched, Order{byArrival, true})
	for i := 0; i < 100; i++ {
		tour.Add(mkJob(i, float64(i), 0, 1, 0), true)
	}
	size := tour.size
	tour.Reset()
	if tour.Len() != 0 || tour.Best(0) != nil {
		t.Fatalf("Len=%d Best=%v after Reset", tour.Len(), tour.Best(0))
	}
	if tour.size != size {
		t.Fatalf("Reset changed capacity: %d -> %d", size, tour.size)
	}
	checkMode(t, tour, true) // and so kept its mode
	b := mkJob(500, 3, 0, 1, 0)
	tour.Add(b, b.wantsMapSlot())
	if tour.Best(0) != b {
		t.Fatal("reset tournament does not accept fresh jobs")
	}
}

// TestTournamentSiftShortcuts pins the two shortcuts that keep the tree
// cheap against the cases that must defeat them: a Fix that leaves
// eligibility alone is skipped under a static key but not under a
// dynamic one, and the early exit from sift must not fire when the
// unchanged winner is the touched leaf itself (its key moved). It runs
// in both modes, so the flat mode's bit flips answer the same cases.
func TestTournamentSiftShortcuts(t *testing.T) {
	for _, mode := range tournamentModes {
		t.Run(mode.name, func(t *testing.T) {
			// Static key, eligibility unchanged: the skipped Fix changes nothing.
			fifo := NewTournament(LaneSched, Order{byArrival, true})
			padTournament(fifo, mode.pad)
			a, b := mkJob(1, 1, 0, 5, 0), mkJob(2, 2, 0, 5, 0)
			fifo.Add(a, a.wantsMapSlot())
			fifo.Add(b, b.wantsMapSlot())
			a.ScheduledMaps++ // still pending maps: still eligible
			fifo.Fix(a, a.wantsMapSlot())
			if fifo.Best(0) != a {
				t.Fatalf("static skip: Best = job %d, want 1", fifo.Best(0).ID)
			}
			a.ScheduledMaps = a.NumMaps // eligibility flips: must sift
			fifo.Fix(a, a.wantsMapSlot())
			if fifo.Best(0) != b {
				t.Fatalf("after job 1 ran out of maps: Best = %v, want job 2", fifo.Best(0))
			}
			checkMode(t, fifo, mode.tree)

			// Dynamic key, touched leaf is the current winner and stays eligible:
			// its running count grows past the runner-up's, so the root must move.
			fair := NewTournament(LaneSched, Order{fairMapBetter, false})
			padTournament(fair, mode.pad)
			var jobs []*JobInfo
			for id := 0; id < 8; id++ { // spread over several subtrees
				j := mkJob(id, float64(id), 0, 9, 0)
				jobs = append(jobs, j)
				fair.Add(j, j.wantsMapSlot())
			}
			for round := 0; round < 20; round++ {
				w := fair.Best(0)
				if want := naiveBest(liveSet(jobs), fairMapBetter, (*JobInfo).wantsMapSlot); w != want {
					t.Fatalf("round %d: Best = job %d, naive scan wants %d", round, w.ID, want.ID)
				}
				w.ScheduledMaps++ // winner's key worsens, eligibility unchanged
				fair.Fix(w, w.wantsMapSlot())
			}
			checkMode(t, fair, mode.tree)
		})
	}
}

func liveSet(jobs []*JobInfo) map[int]*JobInfo {
	m := make(map[int]*JobInfo, len(jobs))
	for _, j := range jobs {
		m[j.ID] = j
	}
	return m
}

// --- Scan vs indexed equivalence (satellite: tie-break property tests) ---

// policyPair couples a reference scan policy with a factory for the
// scheduling index the engine would build for it (an index is stateful:
// one per trial).
type policyPair struct {
	name string
	scan Policy
	mk   func() BatchPolicy
}

func policyPairs() []policyPair {
	var out []policyPair
	for _, pc := range []struct {
		name string
		p    Policy
	}{
		{"FIFO", FIFO{}},
		{"MaxEDF", MaxEDF{}},
		{"MinEDF-avg", MinEDF{}},
		{"MinEDF-low", MinEDF{Estimate: EstimatorLow}},
		{"MinEDF-up", MinEDF{Estimate: EstimatorUp}},
		{"Fair", Fair{}},
		{"Capacity", Capacity{Shares: []float64{3, 1, 2}}},
	} {
		p := pc.p
		out = append(out, policyPair{pc.name, p, func() BatchPolicy { return IndexFor(p, nil) }})
	}
	return out
}

// peekMap and peekReduce read the index's next grant without taking it,
// as a position in q (-1: none) — the read-only counterpart of
// ChooseNext* the fuzz tests compare against the scan.
func peekMap(ix BatchPolicy, q []*JobInfo) int    { return peek(ix, q, false) }
func peekReduce(ix BatchPolicy, q []*JobInfo) int { return peek(ix, q, true) }

func peek(ix BatchPolicy, q []*JobInfo, reduce bool) int {
	kind := forMaps
	if reduce {
		kind = forReduces
	}
	var j *JobInfo
	switch ix := ix.(type) {
	case *jobIndex:
		j = ix.t.Best(kind)
	case *capacityIndex:
		_, j = ix.best(kind)
	}
	for i := range q {
		if q[i] == j {
			return i
		}
	}
	return -1
}

func TestIndexedReturnsBatchPolicyForBuiltins(t *testing.T) {
	for _, pc := range policyPairs() {
		if pc.mk() == nil {
			t.Errorf("IndexFor(%s) = nil, want a scheduling index", pc.name)
		}
		if _, ok := pc.scan.(BatchPolicy); ok {
			t.Errorf("%s: the policy value itself must stay stateless, not carry the index", pc.name)
		}
	}
	if got := IndexFor(NewDynamicPriority(nil, nil), nil); got != nil {
		t.Errorf("IndexFor(DynamicPriority) = %T, want nil (two-call interface)", got)
	}
	// Re-arming recycles a fitting index and replaces a misfit.
	fifo := IndexFor(FIFO{}, nil)
	if got := IndexFor(Fair{}, fifo); got != fifo {
		t.Error("single-queue index not recycled across single-queue policies")
	}
	if got := IndexFor(Capacity{Shares: []float64{1, 1}}, fifo); got == fifo {
		t.Error("Capacity recycled a single-queue index")
	}
}

// TestIndexedTieBreakByID pins the satellite property directly: jobs
// with equal deadlines AND equal arrivals must resolve by job ID, and
// the scan and indexed paths must agree on the winner.
func TestIndexedTieBreakByID(t *testing.T) {
	for _, pc := range policyPairs() {
		t.Run(pc.name, func(t *testing.T) {
			// Same arrival, same deadline, IDs shuffled relative to
			// queue positions.
			q := []*JobInfo{
				mkJob(9, 4, 100, 3, 1),
				mkJob(2, 4, 100, 3, 1),
				mkJob(5, 4, 100, 3, 1),
			}
			indexed := pc.mk()
			for _, j := range q {
				indexed.OnJobAdmit(j, 64, 64)
			}
			wantIdx := 1 // job ID 2 has the lowest ID
			if got := pc.scan.ChooseNextMapTask(q); got != wantIdx {
				t.Fatalf("scan map pick = %d, want %d (lowest ID)", got, wantIdx)
			}
			if got := peekMap(indexed, q); got != wantIdx {
				t.Fatalf("indexed map pick = %d, want %d (lowest ID)", got, wantIdx)
			}
			if got := peekReduce(indexed, q); got != pc.scan.ChooseNextReduceTask(q) {
				t.Fatalf("reduce picks disagree: indexed %d", got)
			}
		})
	}
}

// randomTieQueue builds a queue designed to collide on every key:
// arrivals and deadlines drawn from tiny value sets so equal-deadline
// and equal-arrival ties are the norm, not the exception.
func randomTieQueue(rng *rand.Rand, n int) []*JobInfo {
	q := make([]*JobInfo, 0, n)
	perm := rng.Perm(n * 2)
	for i := 0; i < n; i++ {
		j := mkJob(perm[i], float64(rng.Intn(3)), float64(rng.Intn(3)*100), 1+rng.Intn(4), rng.Intn(3))
		j.ReduceReady = rng.Intn(2) == 0
		q = append(q, j)
	}
	return q
}

// mutateJob applies one random legal counter transition, keeping the
// invariants Scheduled <= Num and Completed <= Scheduled.
func mutateJob(rng *rand.Rand, j *JobInfo) {
	switch rng.Intn(5) {
	case 0:
		if j.ScheduledMaps < j.NumMaps {
			j.ScheduledMaps++
		}
	case 1:
		if j.CompletedMaps < j.ScheduledMaps {
			j.CompletedMaps++
		}
	case 2:
		if j.ScheduledReduces < j.NumReduces {
			j.ScheduledReduces++
		}
	case 3:
		if j.CompletedReduces < j.ScheduledReduces {
			j.CompletedReduces++
		}
	default:
		if !j.ReduceReady && j.CompletedMaps > 0 {
			j.ReduceReady = true
		}
	}
}

// TestIndexedChoiceMatchesScanFuzz walks random queues through random
// admissions, counter mutations, and departures, comparing every
// next-grant decision between the scan and indexed paths. Both read
// the same JobInfo objects, so any disagreement is an ordering bug, not
// a state-divergence artifact.
func TestIndexedChoiceMatchesScanFuzz(t *testing.T) {
	for _, pc := range policyPairs() {
		t.Run(pc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 30; trial++ {
				indexed := pc.mk()
				q := randomTieQueue(rng, 1+rng.Intn(40))
				for _, j := range q {
					indexed.OnJobAdmit(j, 64, 64)
				}
				nextID := 1000 * (trial + 1)
				for step := 0; step < 60; step++ {
					switch op := rng.Intn(10); {
					case op == 0: // admit a new job
						j := mkJob(nextID, float64(rng.Intn(3)), float64(rng.Intn(3)*100), 1+rng.Intn(4), rng.Intn(3))
						nextID++
						q = append(q, j)
						indexed.OnJobAdmit(j, 64, 64)
					case op == 1 && len(q) > 0: // depart a random job
						i := rng.Intn(len(q))
						indexed.OnJobDepart(q[i])
						q = append(q[:i], q[i+1:]...)
					case len(q) > 0: // mutate a random job
						j := q[rng.Intn(len(q))]
						mutateJob(rng, j)
						indexed.OnJobUpdate(j)
					}
					if got, want := peekMap(indexed, q), pc.scan.ChooseNextMapTask(q); got != want {
						t.Fatalf("trial %d step %d: map pick indexed=%d scan=%d", trial, step, got, want)
					}
					if got, want := peekReduce(indexed, q), pc.scan.ChooseNextReduceTask(q); got != want {
						t.Fatalf("trial %d step %d: reduce pick indexed=%d scan=%d", trial, step, got, want)
					}
				}
			}
		})
	}
}

// cloneQueue deep-copies the JobInfos so a reference scan replay cannot
// see mutations made by the batch path.
func cloneQueue(q []*JobInfo) []*JobInfo {
	c := make([]*JobInfo, len(q))
	for i, j := range q {
		cp := *j
		c[i] = &cp
	}
	return c
}

// scanGrants is the reference for one Assign* call: n successive scan
// choices over ref, each followed by the engine's Scheduled* increment,
// reported as job IDs.
func scanGrants(ref []*JobInfo, n int, choose func([]*JobInfo) int, grant func(*JobInfo)) []int {
	var ids []int
	for len(ids) < n {
		idx := choose(ref)
		if idx < 0 {
			break
		}
		grant(ref[idx])
		ids = append(ids, ref[idx].ID)
	}
	return ids
}

// TestIndexedBatchMatchesScanFuzz checks the batch contract over random
// admit / update / depart / assign streams: every AssignMapSlots(_, n)
// call must grant exactly the job IDs n successive scan
// ChooseNextMapTask calls would (each followed by the engine's
// ScheduledMaps increment), reduces likewise, and leave identical
// counters. The index runs on its own JobInfos and the scan on a
// parallel clone, so a stale tree cannot hide behind shared state. Jobs
// carry several tasks, so most grants leave the winner eligible: under
// the static-key policies that is the Fix the tree skips, under Fair it
// is the touched-leaf-is-the-winner case the sift early exit must not
// swallow. Assign* is handed a nil queue: the index answers from its
// hooks alone.
func TestIndexedBatchMatchesScanFuzz(t *testing.T) {
	for _, pc := range policyPairs() {
		t.Run(pc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			for trial := 0; trial < 40; trial++ {
				indexed := pc.mk()
				q := randomTieQueue(rng, 1+rng.Intn(30))
				for _, j := range q {
					indexed.OnJobAdmit(j, 64, 64)
				}
				ref := cloneQueue(q)
				// MinEDF sizes on admit: the scan side's arrival hook.
				if aa, ok := pc.scan.(ArrivalAware); ok {
					for _, j := range ref {
						aa.OnJobArrival(j, 64, 64)
					}
				}
				nextID := 1000 * (trial + 1)
				for step := 0; step < 50; step++ {
					switch op := rng.Intn(10); {
					case op == 0: // admit
						j := mkJob(nextID, float64(rng.Intn(3)), float64(rng.Intn(3)*100), 1+rng.Intn(4), rng.Intn(3))
						nextID++
						cp := *j
						q, ref = append(q, j), append(ref, &cp)
						indexed.OnJobAdmit(j, 64, 64)
						if aa, ok := pc.scan.(ArrivalAware); ok {
							aa.OnJobArrival(&cp, 64, 64)
						}
					case op == 1 && len(q) > 0: // depart
						i := rng.Intn(len(q))
						indexed.OnJobDepart(q[i])
						q, ref = append(q[:i], q[i+1:]...), append(ref[:i], ref[i+1:]...)
					case op < 6 && len(q) > 0: // one engine-side counter change
						i, seed := rng.Intn(len(q)), rng.Int63()
						mutateJob(rand.New(rand.NewSource(seed)), q[i])
						mutateJob(rand.New(rand.NewSource(seed)), ref[i])
						indexed.OnJobUpdate(q[i])
					case op < 8: // map allocation round
						n := 1 + rng.Intn(20)
						want := scanGrants(ref, n, pc.scan.ChooseNextMapTask, func(j *JobInfo) { j.ScheduledMaps++ })
						if got := indexed.AssignMapSlots(nil, n); !slices.Equal(got, want) {
							t.Fatalf("trial %d step %d: AssignMapSlots(%d) = %v, scan grants %v", trial, step, n, got, want)
						}
					default: // reduce allocation round
						n := 1 + rng.Intn(20)
						want := scanGrants(ref, n, pc.scan.ChooseNextReduceTask, func(j *JobInfo) { j.ScheduledReduces++ })
						if got := indexed.AssignReduceSlots(nil, n); !slices.Equal(got, want) {
							t.Fatalf("trial %d step %d: AssignReduceSlots(%d) = %v, scan grants %v", trial, step, n, got, want)
						}
					}
				}
				for i := range q {
					if q[i].ScheduledMaps != ref[i].ScheduledMaps || q[i].ScheduledReduces != ref[i].ScheduledReduces {
						t.Fatalf("trial %d: job %d counters diverge: batch (%d,%d) scan (%d,%d)",
							trial, q[i].ID, q[i].ScheduledMaps, q[i].ScheduledReduces,
							ref[i].ScheduledMaps, ref[i].ScheduledReduces)
					}
				}
			}
		})
	}
}

// TestIndexedBatchGrantsMatchScanUnderCaps is the batch contract where
// a static ranking's winner takes several slots in one grant: MinEDF
// jobs sized from a real profile, so wanted-slot caps bind below the
// pending tasks, with completions that reopen room under a cap. Every
// Assign* must grant the IDs, in order, that one-slot-at-a-time scan
// choices do, and the stream must reach both a round the winner cannot
// fill (its room below n) and one it outlasts (n below its room), with
// the cap, not the pending tasks, setting the room at least once.
func TestIndexedBatchGrantsMatchScanUnderCaps(t *testing.T) {
	tpl := &trace.Template{
		AppName: "capped", NumMaps: 30, NumReduces: 8,
		MapDurations:    fill(30, 10),
		FirstShuffle:    fill(8, 2),
		TypicalShuffle:  fill(8, 5),
		ReduceDurations: fill(8, 3),
	}
	for _, pc := range policyPairs() {
		if !strings.HasPrefix(pc.name, "MinEDF") {
			continue
		}
		t.Run(pc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			aa := pc.scan.(ArrivalAware)
			var roomBelowN, nBelowRoom, capSetsRoom int
			for trial := 0; trial < 30; trial++ {
				indexed := pc.mk()
				var q, ref []*JobInfo
				admit := func(id int) {
					j := mkJob(id, float64(rng.Intn(4)), 0, tpl.NumMaps, tpl.NumReduces)
					j.Profile, j.ReduceReady = tpl.ProfileRef(), false
					if rng.Intn(5) > 0 { // the rest are uncapped: no deadline
						j.Deadline = j.Arrival + 60 + float64(rng.Intn(500))
					}
					cp := *j
					q, ref = append(q, j), append(ref, &cp)
					indexed.OnJobAdmit(j, 64, 64)
					aa.OnJobArrival(&cp, 64, 64)
				}
				for id := 0; id < 1+rng.Intn(6); id++ {
					admit(id)
				}
				for step, nextID := 0, 100; step < 60; step++ {
					switch op := rng.Intn(10); {
					case op == 0:
						admit(nextID)
						nextID++
					case op == 1 && len(q) > 0: // depart
						i := rng.Intn(len(q))
						indexed.OnJobDepart(q[i])
						q, ref = append(q[:i], q[i+1:]...), append(ref[:i], ref[i+1:]...)
					case op < 5 && len(q) > 0: // completions reopen room under a cap
						i := rng.Intn(len(q))
						for _, j := range []*JobInfo{q[i], ref[i]} {
							j.CompletedMaps += (j.ScheduledMaps - j.CompletedMaps + 1) / 2
							j.CompletedReduces += (j.ScheduledReduces - j.CompletedReduces + 1) / 2
							j.ReduceReady = j.ReduceReady || j.CompletedMaps >= j.slowstartFloor()
						}
						indexed.OnJobUpdate(q[i])
					default: // an allocation round of either kind
						kind, n := rng.Intn(2), 1+rng.Intn(24)
						if w := indexed.(*jobIndex).t.Best(kind); w != nil {
							r := room(w, kind)
							if r < n {
								roomBelowN++
							}
							if n < r {
								nBelowRoom++
							}
							if pending := w.NumMaps - w.ScheduledMaps; kind == forMaps && r < pending {
								capSetsRoom++
							}
						}
						var got, want []int
						if kind == forMaps {
							want = scanGrants(ref, n, pc.scan.ChooseNextMapTask, func(j *JobInfo) { j.ScheduledMaps++ })
							got = indexed.AssignMapSlots(nil, n)
						} else {
							want = scanGrants(ref, n, pc.scan.ChooseNextReduceTask, func(j *JobInfo) { j.ScheduledReduces++ })
							got = indexed.AssignReduceSlots(nil, n)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("trial %d step %d: kind %d, %d slots: index grants %v, scan grants %v", trial, step, kind, n, got, want)
						}
					}
				}
				for i := range q {
					if q[i].ScheduledMaps != ref[i].ScheduledMaps || q[i].ScheduledReduces != ref[i].ScheduledReduces {
						t.Fatalf("trial %d: job %d counters diverge: batch (%d,%d) scan (%d,%d)",
							trial, q[i].ID, q[i].ScheduledMaps, q[i].ScheduledReduces,
							ref[i].ScheduledMaps, ref[i].ScheduledReduces)
					}
				}
			}
			if roomBelowN == 0 || nBelowRoom == 0 || capSetsRoom == 0 {
				t.Fatalf("rounds with room < n: %d, with n < room: %d, with a cap setting the room: %d; want each > 0",
					roomBelowN, nBelowRoom, capSetsRoom)
			}
			t.Logf("rounds with room < n: %d, with n < room: %d, with a cap setting the room: %d", roomBelowN, nBelowRoom, capSetsRoom)
		})
	}
}

// TestIndexedResetQueueReArms verifies the pooled-reuse contract: after
// ResetQueue the index accepts a fresh queue and still matches the scan.
func TestIndexedResetQueueReArms(t *testing.T) {
	for _, pc := range policyPairs() {
		t.Run(pc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			indexed := pc.mk()
			q := randomTieQueue(rng, 20)
			for _, j := range q {
				indexed.OnJobAdmit(j, 64, 64)
			}
			indexed.AssignMapSlots(nil, 8)
			indexed.ResetQueue()

			q2 := randomTieQueue(rng, 15)
			for _, j := range q2 {
				indexed.OnJobAdmit(j, 64, 64)
			}
			if got, want := peekMap(indexed, q2), pc.scan.ChooseNextMapTask(q2); got != want {
				t.Fatalf("post-reset map pick = %d, scan = %d", got, want)
			}
			if got, want := peekReduce(indexed, q2), pc.scan.ChooseNextReduceTask(q2); got != want {
				t.Fatalf("post-reset reduce pick = %d, scan = %d", got, want)
			}
		})
	}
}

// Len returns the number of jobs in the index (eligible or not).
func (t *Tournament) Len() int { return t.count }
