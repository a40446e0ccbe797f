package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"unsafe"

	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// sparseStream collects n jobs arriving a minute apart on average, every
// other one with a deadline, from a pool of shared templates.
func sparseStream(t testing.TB, n int, seed int64) *trace.Trace {
	t.Helper()
	s, err := synth.NewStream(synth.StreamConfig{
		Name: "sparse", Jobs: n, MeanInterArrival: 60, TemplatePool: 64,
		DeadlineFraction: 0.5, DeadlineSlack: 900,
		Shapes: []synth.WeightedShape{{Shape: synth.MultiTenantShape(), Weight: 1}},
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// maxLive is the most jobs in the cluster at once, read off the outcomes
// (a job departing at the instant another arrives counts as overlapping).
func maxLive(jobs []JobOutcome) int {
	type edge struct {
		t float64
		d int
	}
	edges := make([]edge, 0, 2*len(jobs))
	for _, o := range jobs {
		edges = append(edges, edge{o.Arrival, +1}, edge{o.Finish, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d > edges[j].d
	})
	live, most := 0, 0
	for _, e := range edges {
		if live += e.d; live > most {
			most = live
		}
	}
	return most
}

// TestLiveStateBoundedByActiveJobs: the engine holds state for the jobs
// in flight, not for the trace. A long sparse stream replayed cold carves
// no more job slots than the jobs ever live at once (plus the departed
// entries allocate lets the queue carry before it compacts) and allocates
// the Result's outcomes plus a few words per job; a burst that is live
// all at once takes one slot per job through the same code, on a fresh
// engine and on the one the sparse replay warmed.
func TestLiveStateBoundedByActiveJobs(t *testing.T) {
	const n = 20_000
	sparse := sparseStream(t, n, 21)
	if err := sparse.Validate(); err != nil { // memoized: the engine's own check is then free
		t.Fatal(err)
	}
	cfg := DefaultConfig()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := New(cfg, sparse, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	most := maxLive(res.Jobs)
	if bound := 2*most + 16; len(e.carved) > bound || len(e.carved) < most {
		t.Errorf("sparse replay carved %d job slots with at most %d jobs live at once, want between that and %d", len(e.carved), most, bound)
	}
	if len(e.carved) > n/100 {
		t.Errorf("sparse replay carved %d job slots for %d jobs: the window is not bounding anything", len(e.carved), n)
	}
	if !raceDetectorEnabled { // the detector allocates on its own account
		perJob := float64(after.TotalAlloc-before.TotalAlloc)/n - float64(unsafe.Sizeof(JobOutcome{}))
		t.Logf("cold New+Run: %d slots for %d jobs (%d live at once), %.0f B/job beyond the outcomes", len(e.carved), n, most, perJob)
		if perJob > 200 {
			t.Errorf("cold New+Run allocates %.0f B per job beyond its outcome, want ≤ 200", perJob)
		}
	}

	burst := &trace.Trace{Name: "burst"}
	for i, j := range sparse.Jobs[:2_000] {
		burst.Jobs = append(burst.Jobs, &trace.Job{ID: i, Name: j.Name, Template: j.Template})
	}
	fresh, err := New(cfg, burst, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.carved) != len(burst.Jobs) {
		t.Errorf("burst of %d jobs, all live at once, carved %d slots", len(burst.Jobs), len(fresh.carved))
	}
	if err := e.Reset(cfg, burst, sched.FIFO{}); err != nil {
		t.Fatal(err)
	}
	got, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.carved) != len(burst.Jobs) {
		t.Errorf("burst on the engine the sparse replay warmed holds %d slots, want %d", len(e.carved), len(burst.Jobs))
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("burst replayed on the warmed engine differs from the fresh engine's")
	}
}

// withDeadline returns tr with the deadline of the job at position p
// replaced — the from-scratch oracle of a SetDeadline branch.
func withDeadline(tr *trace.Trace, p int, deadline float64) *trace.Trace {
	c := &trace.Trace{Name: tr.Name, Jobs: append([]*trace.Job(nil), tr.Jobs...)}
	j := *c.Jobs[p]
	j.Deadline = deadline
	c.Jobs[p] = &j
	return c
}

// TestSetDeadlineAcrossJobLifetime: what SetDeadline says about a job
// does not depend on whether the engine still holds state for it. A job
// yet to arrive has none — its new deadline waits in an override and its
// arrival arms it, on a fork and on the forks of a paused replay sealed
// with the override, exactly as a replay of the edited trace would; a
// live job and a retired one (no slot any more) are refused alike.
func TestSetDeadlineAcrossJobLifetime(t *testing.T) {
	for _, dense := range []bool{true, false} {
		t.Run(fmt.Sprintf("dense=%v", dense), func(t *testing.T) { setDeadlineAcrossJobLifetime(t, dense) })
	}
}

func setDeadlineAcrossJobLifetime(t *testing.T, dense bool) {
	tr := sparseStream(t, 300, 5)
	if !dense { // IDs that are not positions: dispatch through the ID map
		for _, j := range tr.Jobs {
			j.ID = 3*j.ID + 7
		}
	}
	cfg := Config{MapSlots: 16, ReduceSlots: 16, MinMapPercentCompleted: 0.05}
	total, err := Run(cfg, tr, sched.MinEDF{})
	if err != nil {
		t.Fatal(err)
	}
	prefix, _ := pauseAt(t, cfg, tr, sched.MinEDF{}, total.Events/2)
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := snap.Fork(ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}

	retired, live, next := -1, -1, -1
	for p := range fork.out {
		switch {
		case !fork.arrived(p):
			if next < 0 {
				next = p
			}
		case fork.slotOf[p] == nil:
			retired = p
		default:
			live = p
		}
	}
	if retired < 0 || live < 0 || next < 0 {
		t.Fatalf("branch point has no retired (%d), live (%d) or unarrived (%d) job", retired, live, next)
	}
	for _, p := range []int{live, retired} {
		j := tr.Jobs[p]
		want := fmt.Sprintf("engine: SetDeadline: job %d already arrived at t=%.3f; branch before its arrival to change its deadline", j.ID, j.Arrival)
		if err := fork.SetDeadline(j.ID, j.Arrival+1e6); err == nil || err.Error() != want {
			t.Errorf("SetDeadline(job %d) = %v, want %q", j.ID, err, want)
		}
	}
	if err, want := fork.SetDeadline(-1, 1), "engine: SetDeadline: no job -1 in this replay"; err == nil || err.Error() != want {
		t.Errorf("SetDeadline(unknown job) = %v, want %q", err, want)
	}
	id, deadline := tr.Jobs[next].ID, tr.Jobs[next].Arrival+42.5
	if err := fork.SetDeadline(id, deadline); err != nil {
		t.Fatal(err)
	}
	if fork.slotOf[next] != nil || !reflect.DeepEqual(fork.out[next], JobOutcome{}) {
		t.Fatal("SetDeadline built state for a job that has not arrived")
	}
	want, err := Run(cfg, withDeadline(tr, next, deadline), sched.MinEDF{})
	if err != nil {
		t.Fatal(err)
	}

	got, err := fork.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("SetDeadline on a fork differs from replaying the edited trace")
	}

	// A replay paused and edited before the job arrives, then sealed: the
	// override travels into every fork of it.
	edited, _ := pauseAt(t, cfg, tr, sched.MinEDF{}, total.Events/2)
	if err := edited.SetDeadline(id, deadline); err != nil {
		t.Fatal(err)
	}
	sealed, err := edited.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		leaf, err := sealed.Fork(ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 { // pause once more, past the arrival, before finishing
			if _, err := leaf.RunEvents(sealed.Events() + total.Events/4); err != nil {
				t.Fatal(err)
			}
			if err := leaf.SetDeadline(id, deadline+1); err == nil {
				t.Error("SetDeadline on a job armed under an override did not error")
			}
		}
		got, err := leaf.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("leaf %d: a fork of an edited replay differs from replaying the edited trace", i)
		}
	}
}

// TestPutReleasesTrace: an engine idle in the pool points at nothing of
// the replay it ran — not the trace, not the Result, not through the
// slots on its free list — whether the run finished or was abandoned
// half-way with jobs live and a deadline moved. A pooled fork drops the
// ID map it borrowed and leaves its source's whole.
func TestPutReleasesTrace(t *testing.T) {
	tr := sparseStream(t, 200, 9)
	for _, j := range tr.Jobs { // IDs that are not positions: an ID map to borrow
		j.ID = 2*j.ID + 1
	}
	cfg := Config{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}
	var pool Pool
	for _, finish := range []bool{true, false} {
		src, err := New(cfg, tr, sched.MaxEDF{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.RunEvents(2_000); err != nil {
			t.Fatal(err)
		}
		snap, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		e, err := snap.Fork(ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if id, _ := firstUnarrivedID(e); id < 0 {
			t.Fatal("no job left to arrive at the pause")
		} else if err := e.SetDeadline(id, 0); err != nil {
			t.Fatal(err)
		}
		if finish {
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		} else if _, err := e.RunEvents(2_100); err != nil || e.live == 0 {
			t.Fatalf("abandoned run has %d live jobs (err %v), want some", e.live, err)
		}
		pool.Put(e)

		if e.tr != nil || e.out != nil || e.policy != nil || e.sink != nil || e.src != nil {
			t.Errorf("finish=%v: pooled engine keeps its trace, outcomes, policy, sink or fork source", finish)
		}
		if len(e.active)+len(e.slots)+len(e.deadlines) != 0 || e.live != 0 {
			t.Errorf("finish=%v: pooled engine still lists jobs", finish)
		}
		if e.indexOf != nil || len(src.indexOf) != len(tr.Jobs) {
			t.Errorf("finish=%v: pooled fork keeps the borrowed ID map, or the source lost entries (%d of %d)",
				finish, len(src.indexOf), len(tr.Jobs))
		}
		for p, sj := range e.slotOf[:cap(e.slotOf)] {
			if sj != nil {
				t.Errorf("finish=%v: position %d still has a slot", finish, p)
			}
		}
		if len(e.free) != len(e.carved) {
			t.Errorf("finish=%v: %d of %d slots on the free list", finish, len(e.free), len(e.carved))
		}
		for _, sj := range e.free {
			if sj.tpl != nil || sj.out != nil || sj.info.Name != "" || sj.info.Profile != nil {
				t.Errorf("finish=%v: free slot keeps %+v", finish, sj.info)
			}
		}
	}
}

// TestTotalsReplayKeepsNoOutcomes: a totals-only replay allocates no
// outcome array. Replayed cold, a trace of 2n jobs costs it at most the
// 24 B a job more than the first n of them do (its arrival-schedule entry
// and its by-position table entry) — give or take the few bytes by which
// the longer trace's busiest instant may grow the queue — where a full
// replay pays its 64-B outcome on top.
func TestTotalsReplayKeepsNoOutcomes(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 8192
	short, long := coldReplayTraces(t, n)
	perJob := func(totals bool) float64 {
		return (float64(coldReplayBytes(t, long, totals, 1)) - float64(coldReplayBytes(t, short, totals, 1))) / n
	}
	totals, full := perJob(true), perJob(false)
	t.Logf("cold replay, %d → %d jobs: totals-only %.3f B/job, full %.3f B/job", n, 2*n, totals, full)
	if totals > 24+1024.0/n {
		t.Errorf("a totals-only replay allocates %.3f B per job, want ≤ 24", totals)
	}
	if outcome := float64(unsafe.Sizeof(JobOutcome{})); full-totals < outcome {
		t.Errorf("a full replay allocates %.1f B per job more than a totals-only one, want its %.0f-B outcome", full-totals, outcome)
	}
}

// TestSplitTotalsReplayKeepsNoOutcomes: split into 2, 4 or 8 segments, a
// totals-only replay allocates at most 8 B per job more than unsplit.
// Each later segment's engine holds a by-position table for its own
// share, not for the rest of the trace: the tables of every segment but
// the first cover the trace once between them.
func TestSplitTotalsReplayKeepsNoOutcomes(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 8192
	short, long := coldReplayTraces(t, n)
	for _, workers := range []int{2, 4, 8} {
		perJob := (float64(coldReplayBytes(t, long, true, workers)) - float64(coldReplayBytes(t, short, true, workers))) / n
		t.Logf("cold totals-only replay, %d → %d jobs, %d segments: %.3f B/job", n, 2*n, workers, perJob)
		if perJob > 24+8+1024.0/n {
			t.Errorf("a totals-only replay split %d ways allocates %.3f B per job, want ≤ 32", workers, perJob)
		}
	}
}

// coldReplayTraces returns sparse traces of n and 2n jobs, validated and
// profiled, so a replay of either allocates for the replay alone.
func coldReplayTraces(t *testing.T, n int) (short, long *trace.Trace) {
	long = sparseStream(t, 2*n, 13)
	short = &trace.Trace{Name: "short", Jobs: long.Jobs[:n]}
	for _, tr := range []*trace.Trace{short, long} {
		if _, err := Run(DefaultConfig(), tr, sched.FIFO{}); err != nil { // validates and profiles the templates
			t.Fatal(err)
		}
	}
	return short, long
}

// coldReplayBytes is the least a cold FIFO replay of tr, split over
// workers segments, allocates over a few runs. Every boundary must hold.
//
// Each run is measured from just after a collection, with the collector
// off until it ends, so every run pays the same runtime costs. The fresh
// Pool's first Put registers its sync.Pool in the runtime's list of
// pools, which a collection empties: measured from wherever the last
// collection left that list, the append grows it in some runs and not in
// others (by tens of bytes), and a collection inside the run adds its own
// few bytes. In a process whose earlier tests had not warmed the heap, that
// put a totals-only replay of 2n jobs 16 B over its 24 B a job.
func coldReplayBytes(t *testing.T, tr *trace.Trace, totals bool, workers int) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for range 3 {
		var pool Pool // empty: the replay builds its engines
		var before, after runtime.MemStats
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&before)
		res, segments, cancelled, err := pool.RunSplit(DefaultConfig(), tr, sched.FIFO{}, workers, totals)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Jobs == nil) != totals {
			t.Fatalf("totals %v: Result holds %d jobs", totals, len(res.Jobs))
		}
		if segments != workers || cancelled != 0 {
			t.Fatalf("%d workers: the replay ran as %d segments, %d cancelled", workers, segments, cancelled)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
