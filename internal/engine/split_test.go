package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/sched/schedtest"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// This file is the split-vs-sequential differential (split.go, DESIGN.md
// §5 "Quiescent instants"): a replay run as segments on several engines
// must return the Result the sequential replay returns, bit for bit,
// whether its boundaries are accepted or cancelled — under every built-in
// indexed policy, both shuffle ablations, preemption and both ends of the
// slowstart range, at every segment count. So must a totals-only replay
// (RunSplit's totals), split or not, in every field but the Jobs it does
// not keep.

// splitPolicies are the built-in policies with a scheduling index.
func splitPolicies() []sched.Policy {
	return []sched.Policy{sched.FIFO{}, sched.MaxEDF{}, sched.MinEDF{}, sched.MinEDF{Estimate: sched.EstimatorLow},
		sched.MinEDF{Estimate: sched.EstimatorUp}, sched.Fair{}, sched.Capacity{Shares: []float64{3, 1, 2}}}
}

func splitConfigs() map[string]Config {
	cfgs := map[string]Config{}
	for _, slowstart := range []float64{0.05, 1} {
		base := DefaultConfig()
		base.MinMapPercentCompleted = slowstart
		preempt, noShuffle, noFirst := base, base, base
		preempt.PreemptMapTasks = true
		noShuffle.NoShuffleModel = true
		noFirst.NoFirstShuffleSpecialCase = true
		for name, cfg := range map[string]Config{"base": base, "preempt": preempt, "no-shuffle": noShuffle, "no-first-shuffle": noFirst} {
			cfgs[fmt.Sprintf("%s/slowstart=%v", name, slowstart)] = cfg
		}
	}
	return cfgs
}

// evenBounds splits a trace into parts segments as evenly as the strict
// arrival gap allows — the first position at or after each even share
// whose arrival is later than its predecessor's — with no regard to
// whether the cluster can be quiescent there: every boundary is tried.
func evenBounds(tr *trace.Trace, parts int) []int {
	var bounds []int
	prev := 0
	for i := 1; i < parts; i++ {
		for k := max(prev+1, i*len(tr.Jobs)/parts); k < len(tr.Jobs); k++ {
			if tr.Jobs[k-1].Arrival < tr.Jobs[k].Arrival {
				bounds = append(bounds, k)
				prev = k
				break
			}
		}
	}
	return bounds
}

// everyBound makes every position with a strict arrival gap a boundary.
func everyBound(tr *trace.Trace) []int { return evenBounds(tr, len(tr.Jobs)) }

// exactLandingTrace alternates two kinds of boundary. Even jobs hold all
// 64 map slots for 10 s; the odd job after each arrives at exactly the
// instant those maps finish — its arrival pops before their departures,
// so the cluster is busy then and the boundary must be cancelled — and
// carries a deadline, so under preemption it kills one of them. The next
// even job arrives 5 s after everything has finished: quiescent.
func exactLandingTrace() *trace.Trace {
	wide, narrow := uniformTemplate(64, 0, 10, 0, 0, 0), uniformTemplate(1, 0, 10, 0, 0, 0)
	tr := &trace.Trace{Name: "exact-landing"}
	t := 0.0
	for i := 0; i < 24; i += 2 {
		tr.Jobs = append(tr.Jobs, &trace.Job{Arrival: t, Template: wide})
		t += 10
		tr.Jobs = append(tr.Jobs, &trace.Job{Arrival: t, Deadline: t + 100, Template: narrow})
		t += 15
	}
	tr.Normalize()
	return tr
}

// zeroDurationTrace mixes jobs whose every task takes no time — they
// arrive, run and depart within one instant — with zero-duration maps
// ahead of timed reduces, arriving a second apart, some two at once.
func zeroDurationTrace() *trace.Trace {
	tpls := []*trace.Template{
		uniformTemplate(3, 2, 0, 0, 0, 0),
		uniformTemplate(2, 1, 0, 0.5, 0.5, 0.5),
		uniformTemplate(4, 0, 0, 0, 0, 0),
		uniformTemplate(1, 1, 0.75, 0, 0, 0),
	}
	tr := &trace.Trace{Name: "zero-duration"}
	for i := 0; i < 60; i++ {
		tr.Jobs = append(tr.Jobs, &trace.Job{Arrival: float64(i - i%5/4), Template: tpls[i%len(tpls)]})
	}
	tr.Normalize()
	return tr
}

// totalsOf is res without its jobs: what a totals-only replay returns.
func totalsOf(res *Result) *Result {
	r := *res
	r.Jobs = nil
	return &r
}

// splitAgainstSequential runs tr as segments beginning at bounds, as a
// full replay and as a totals-only one, and fails unless the Results are
// the sequential replay's (the totals-only one but for its Jobs).
func splitAgainstSequential(t *testing.T, pool *Pool, cfg Config, tr *trace.Trace, p sched.Policy, want *Result, bounds []int) (accepted int) {
	t.Helper()
	split := func(totals bool) (*Result, int) {
		t.Helper()
		e, err := pool.Get(cfg, tr, p)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Put(e)
		if err := e.start(nil, totals); err != nil {
			t.Fatal(err)
		}
		got, accepted, err := e.runSplit(pool, bounds)
		if err != nil {
			t.Fatalf("split at %v (totals-only %v): %v", bounds, totals, err)
		}
		return got, accepted
	}
	if got, _ := split(true); !reflect.DeepEqual(got, totalsOf(want)) {
		t.Fatalf("totals-only split at %v: %d jobs, totals %+v; sequential %+v", bounds, len(got.Jobs), *totalsOf(got), *totalsOf(want))
	}
	got, accepted := split(false)
	if got.Events != want.Events || got.Makespan != want.Makespan {
		t.Fatalf("split at %v: %d events, makespan %v; sequential %d, %v", bounds, got.Events, got.Makespan, want.Events, want.Makespan)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want.Jobs {
			if got.Jobs[i] != want.Jobs[i] {
				t.Fatalf("split at %v: job %d is %+v, sequential %+v", bounds, i, got.Jobs[i], want.Jobs[i])
			}
		}
		t.Fatalf("split at %v: Result differs from the sequential replay's", bounds)
	}
	return accepted
}

func TestSplitMatchesSequential(t *testing.T) {
	burst, err := synth.MultiTenantTrace(400, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	chosen := func(tr *trace.Trace, parts int) []int { return splitPoints(tr.Jobs, parts) }
	cases := []struct {
		name   string
		tr     *trace.Trace
		bounds func(tr *trace.Trace, parts int) []int
		every  bool // split at every position too
		// want is what the case's boundaries must come to over all its runs.
		want     func(accepted, cancelled int) bool
		wantText string
	}{
		{"sparse", sparseStream(t, 1200, 7), chosen, false,
			func(a, _ int) bool { return a > 0 }, "some accepted"},
		{"saturated-burst", burst, evenBounds, false,
			func(a, c int) bool { return a == 0 && c > 0 }, "all cancelled"},
		{"exact-landing", exactLandingTrace(), evenBounds, true,
			func(a, c int) bool { return a > 0 && c > 0 }, "some accepted, some cancelled"},
		{"zero-duration", zeroDurationTrace(), evenBounds, true,
			func(a, _ int) bool { return a > 0 }, "some accepted"},
	}
	if b := splitPoints(burst.Jobs, 8); len(b) != 0 {
		t.Errorf("splitPoints tries %v in a saturated burst, where every job outlives the next arrival", b)
	}
	var pool Pool
	for _, c := range cases {
		var sets [][]int
		for _, parts := range []int{2, 3, 4, 8} {
			sets = append(sets, c.bounds(c.tr, parts))
		}
		if c.every {
			sets = append(sets, everyBound(c.tr))
		}
		var accepted, cancelled int
		for cfgName, cfg := range splitConfigs() {
			for _, p := range splitPolicies() {
				want, err := Run(cfg, c.tr, p)
				if err != nil {
					t.Fatal(err)
				}
				totals, _, _, err := pool.RunSplit(cfg, c.tr, p, 1, true)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(totals, totalsOf(want)) {
					t.Errorf("%s/%s/%s: unsplit totals-only Result has %d jobs, totals %+v; sequential %+v",
						c.name, cfgName, p.Name(), len(totals.Jobs), *totalsOf(totals), *totalsOf(want))
				}
				for _, bounds := range sets {
					t.Run(fmt.Sprintf("%s/%s/%s/%d-segments", c.name, cfgName, p.Name(), len(bounds)+1), func(t *testing.T) {
						if len(bounds) == 0 {
							t.Fatal("no boundary to split at")
						}
						a := splitAgainstSequential(t, &pool, cfg, c.tr, p, want, bounds)
						accepted += a
						cancelled += len(bounds) - a
					})
				}
			}
		}
		t.Logf("%s: %d boundaries accepted, %d cancelled", c.name, accepted, cancelled)
		if !c.want(accepted, cancelled) {
			t.Errorf("%s: %d boundaries accepted, %d cancelled; want %s", c.name, accepted, cancelled, c.wantText)
		}
	}
}

// refuseJob schedules like FIFO's scan but never gives the job with ID id
// a map slot: the replay deadlocks once everything else has finished.
type refuseJob struct{ id int }

func (refuseJob) Name() string { return "refuse" }

func (p refuseJob) ChooseNextMapTask(q []*sched.JobInfo) int {
	for i, j := range q {
		if j.ID != p.id && j.PendingMaps() > 0 {
			return i
		}
	}
	return -1
}

func (refuseJob) ChooseNextReduceTask(q []*sched.JobInfo) int {
	return sched.FIFO{}.ChooseNextReduceTask(q)
}

// A replay that fails inside a later segment fails as the sequential one
// does, with its error, and every segment engine has stopped by the time
// runSplit returns (the race detector sees the pool reuse them next).
func TestSplitFailureMatchesSequential(t *testing.T) {
	tr := exactLandingTrace()
	p := refuseJob{id: 14}
	_, want := Run(DefaultConfig(), tr, p)
	if want == nil || !strings.Contains(want.Error(), "deadlock") {
		t.Fatalf("sequential replay: %v, want a deadlock", want)
	}
	var pool Pool
	for _, bounds := range [][]int{everyBound(tr), {2, 12, 16}, {20}} {
		e, err := pool.Get(DefaultConfig(), tr, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.start(nil, false); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.runSplit(&pool, bounds); err == nil || err.Error() != want.Error() {
			t.Fatalf("split at %v: %v, want %v", bounds, err, want)
		}
		pool.Put(e)
	}
}

// RunSplit splits only a bare replay of a long enough trace in arrival
// order under a policy with a scheduling index; every other replay runs
// as Run runs it. Either way the Result is Run's.
func TestRunSplitEligibility(t *testing.T) {
	sparse := sparseStream(t, 4*minSegmentJobs, 3)
	shuffled := &trace.Trace{Name: "swapped", Jobs: append([]*trace.Job(nil), sparse.Jobs...)}
	shuffled.Jobs[0], shuffled.Jobs[1] = shuffled.Jobs[1], shuffled.Jobs[0]
	short := &trace.Trace{Name: "short", Jobs: sparse.Jobs[:2*minSegmentJobs-1]}
	fifo := func() sched.Policy { return sched.FIFO{} }
	dpBudgets := map[int]float64{}
	for _, j := range sparse.Jobs {
		dpBudgets[j.ID] = 100
	}
	cases := []struct {
		name    string
		cfg     Config
		tr      *trace.Trace
		p       func() sched.Policy
		workers int
		split   bool
	}{
		{"bare", DefaultConfig(), sparse, fifo, 4, true},
		{"all-cores", DefaultConfig(), sparse, fifo, 0, runtime.GOMAXPROCS(0) >= 2},
		{"one-worker", DefaultConfig(), sparse, fifo, 1, false},
		{"sink", Config{MapSlots: 64, ReduceSlots: 64, MinMapPercentCompleted: 0.05, Sink: &obs.RecordSink{}}, sparse, fifo, 4, false},
		{"scan-policy", DefaultConfig(), sparse, func() sched.Policy { return schedtest.ScanOnly(sched.FIFO{}) }, 4, false},
		{"dynamic-priority", DefaultConfig(), sparse, func() sched.Policy { return sched.NewDynamicPriority(dpBudgets, nil) }, 4, false},
		{"not-in-order", DefaultConfig(), shuffled, fifo, 4, false},
		{"short", DefaultConfig(), short, fifo, 4, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := Run(c.cfg, c.tr, c.p())
			if err != nil {
				t.Fatal(err)
			}
			var pool Pool
			got, segments, cancelled, err := pool.RunSplit(c.cfg, c.tr, c.p(), c.workers, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("RunSplit's Result differs from Run's")
			}
			accepted := segments - 1 - cancelled
			if split := accepted+cancelled > 0; split != c.split {
				t.Fatalf("split %v (%d accepted, %d cancelled), want %v", split, accepted, cancelled, c.split)
			}
		})
	}
}

// shiftIDs copies tr with every job ID moved by delta.
func shiftIDs(tr *trace.Trace, delta int) *trace.Trace {
	c := &trace.Trace{Name: tr.Name}
	for _, j := range tr.Jobs {
		cj := *j
		cj.ID += delta
		c.Jobs = append(c.Jobs, &cj)
	}
	return c
}

// A trace numbered from 1 — or any suffix of a normalized trace, which
// is what a segment engine replays — dispatches on the position, with no
// ID map, and replays like its 0-based twin, mutations and all.
func TestDenseDispatchOffsetIDs(t *testing.T) {
	zero := sparseStream(t, 10_000, 11)
	one := shiftIDs(zero, 1)
	cfg := DefaultConfig()
	cfg.PreemptMapTasks = true
	run := func(tr *trace.Trace, base int) *Result {
		t.Helper()
		e, err := New(cfg, tr, sched.MaxEDF{})
		if err != nil {
			t.Fatal(err)
		}
		if e.indexOf != nil {
			t.Fatalf("IDs %d.. dispatch through a map", base)
		}
		if _, err := e.RunEvents(e.EventsFired() + 60_000); err != nil {
			t.Fatal(err)
		}
		// The mutations resolve IDs through jobLookup, bounded by the
		// trace's first and last ID.
		id, _ := firstUnarrivedID(e)
		if err := e.SetDeadline(id, 0); err != nil {
			t.Fatal(err)
		}
		if err := e.SetDeadline(base-1, 0); err == nil {
			t.Fatalf("SetDeadline of ID %d, below the trace's, succeeded", base-1)
		}
		if err := e.SetDeadline(base+len(tr.Jobs), 0); err == nil {
			t.Fatalf("SetDeadline of ID %d, past the trace's, succeeded", base+len(tr.Jobs))
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := run(zero, 0), run(one, 1)
	for i := range got.Jobs {
		got.Jobs[i].ID--
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the 1-based trace replays differently from its 0-based twin")
	}
}
