package sched

import (
	"math/rand"
	"slices"
	"testing"
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

func TestTournamentMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eligible := (*JobInfo).wantsMapSlot
	tour := NewTournament(LaneSched, Order{byDeadline, true})
	live := map[int]*JobInfo{}
	nextID := 0

	check := func(step int) {
		t.Helper()
		want := naiveBest(live, byDeadline, eligible)
		got := tour.Best(0)
		if got != want {
			t.Fatalf("step %d: Best() = %+v, naive scan wants %+v", step, got, want)
		}
		if tour.Len() != len(live) {
			t.Fatalf("step %d: Len() = %d, want %d", step, tour.Len(), len(live))
		}
	}

	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0: // add, crossing the grow threshold often
			j := mkJob(nextID, float64(rng.Intn(3)), float64(rng.Intn(3)*100), 1+rng.Intn(5), 0)
			nextID++
			live[j.ID] = j
			tour.Add(j, j.wantsMapSlot())
		case op < 6: // remove a random live job
			for _, j := range live {
				delete(live, j.ID)
				tour.Remove(j)
				break
			}
		default: // mutate a random job's counters, then Fix
			for _, j := range live {
				if rng.Intn(2) == 0 && j.ScheduledMaps < j.NumMaps {
					j.ScheduledMaps++
				} else if j.CompletedMaps < j.ScheduledMaps {
					j.CompletedMaps++
				}
				tour.Fix(j, j.wantsMapSlot())
				break
			}
		}
		check(step)
	}
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
	b := mkJob(500, 3, 0, 1, 0)
	tour.Add(b, b.wantsMapSlot())
	if tour.Best(0) != b {
		t.Fatal("reset tournament does not accept fresh jobs")
	}
}

// TestTournamentSiftShortcuts pins the two shortcuts that keep the tree
// cheap at small queues against the cases that must defeat them: a Fix
// that leaves eligibility alone is skipped under a static key but not
// under a dynamic one, and the early exit from sift must not fire when
// the unchanged winner is the touched leaf itself (its key moved).
func TestTournamentSiftShortcuts(t *testing.T) {
	// Static key, eligibility unchanged: the skipped Fix changes nothing.
	fifo := NewTournament(LaneSched, Order{byArrival, true})
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

	// Dynamic key, touched leaf is the current winner and stays eligible:
	// its running count grows past the runner-up's, so the root must move.
	fair := NewTournament(LaneSched, Order{fairMapBetter, false})
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
		if cq := ix.best(kind); cq != nil {
			j = cq.t.Best(kind)
		}
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
