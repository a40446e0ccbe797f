package sched

import (
	"math/rand"
	"testing"

	"simmr/internal/trace"
)

// TestIndexRebuildEquivalence pins the rebuild contract documented on
// BatchPolicy: an index reconstructed mid-flight — ResetQueue, then
// OnJobAdmit for every live job in queue order, progress counters and
// all — must answer every subsequent query exactly like the instance
// that saw the full incremental hook stream. This is the property the
// engine's fork path stands on (it rebuilds rather than clones; see
// DESIGN.md §12), chosen over O(index) deep cloning after benching:
// rebuild is O(live jobs · log) with zero per-policy clone code, and
// at fork depths that matter most of the queue has already departed.
func TestIndexRebuildEquivalence(t *testing.T) {
	tpl := &trace.Template{
		AppName: "rebuild", NumMaps: 12, NumReduces: 4,
		MapDurations:    fill(12, 10),
		FirstShuffle:    fill(4, 2),
		TypicalShuffle:  fill(4, 5),
		ReduceDurations: fill(4, 3),
	}
	for _, pc := range policyPairs() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(pc.name))))
			live := pc.mk()

			// Drive the incremental instance through a messy lifecycle:
			// admissions, progress updates, departures.
			var q []*JobInfo
			for id := 0; id < 40; id++ {
				j := mkJob(id, float64(id)*3, 0, 12, 4)
				if id%2 == 0 {
					j.Deadline = j.Arrival + 200 + float64(rng.Intn(400))
				}
				j.Profile = tpl.ProfileRef()
				live.OnJobAdmit(j, 64, 64)
				q = append(q, j)

				// Random progress on random live jobs, index kept in sync.
				for k := 0; k < 3; k++ {
					v := q[rng.Intn(len(q))]
					if v.ScheduledMaps < v.NumMaps {
						v.ScheduledMaps++
					}
					if v.CompletedMaps < v.ScheduledMaps && rng.Intn(2) == 0 {
						v.CompletedMaps++
					}
					if v.CompletedMaps >= v.slowstartFloor() {
						v.ReduceReady = true
					}
					live.OnJobUpdate(v)
				}
				// Occasionally depart the engine-order head, like departJob.
				if id%7 == 6 {
					head := q[0]
					q = append(q[:0], q[1:]...)
					live.OnJobDepart(head)
				}
			}

			// Rebuild a fresh instance from a copy of the live queue,
			// mid-flight state included — exactly what Snapshot.ForkInto
			// does: the fork's jobs are slab copies, stale leaf handles
			// of the source's index and all.
			fq := cloneQueue(q)
			rebuilt := pc.mk()
			rebuilt.ResetQueue()
			for _, j := range fq {
				rebuilt.OnJobAdmit(j, 64, 64)
			}

			// Both indexes must drain their queues identically. peek* is
			// read-only, so compare, then apply the grant on each side.
			for rounds := 0; ; rounds++ {
				a, b := peekMap(live, q), peekMap(rebuilt, fq)
				if a != b {
					t.Fatalf("map grant %d diverged: live %d, rebuilt %d", rounds, a, b)
				}
				if a < 0 {
					break
				}
				q[a].ScheduledMaps++
				fq[a].ScheduledMaps++
				live.OnJobUpdate(q[a])
				rebuilt.OnJobUpdate(fq[a])
			}
			for rounds := 0; ; rounds++ {
				a, b := peekReduce(live, q), peekReduce(rebuilt, fq)
				if a != b {
					t.Fatalf("reduce grant %d diverged: live %d, rebuilt %d", rounds, a, b)
				}
				if a < 0 {
					break
				}
				q[a].ScheduledReduces++
				fq[a].ScheduledReduces++
				live.OnJobUpdate(q[a])
				rebuilt.OnJobUpdate(fq[a])
			}
		})
	}
}

// slowstartFloor mimics the engine's reduce-slowstart gate closely
// enough for the rebuild test's eligibility churn.
func (j *JobInfo) slowstartFloor() int {
	f := j.NumMaps / 20
	if f < 1 {
		f = 1
	}
	return f
}
