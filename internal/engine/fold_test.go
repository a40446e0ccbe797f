package engine

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// foldShapes are the engine configurations the fold differential runs
// every indexed policy under: each one takes a different path through
// Reset (ID dispatch map, preemption index, per-job span slices).
func foldShapes(t *testing.T) []struct {
	name string
	cfg  Config
	tr   *trace.Trace
} {
	t.Helper()
	dense, err := synth.MultiTenantTrace(120, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	// The same jobs under IDs no slice index can serve, out of ID order.
	sparse := &trace.Trace{Name: "sparse"}
	for i, j := range dense.Jobs {
		cp := *j
		cp.ID = 7*(len(dense.Jobs)-i) + 3
		sparse.Jobs = append(sparse.Jobs, &cp)
	}
	small := Config{MapSlots: 12, ReduceSlots: 6, MinMapPercentCompleted: 0.05}
	preempt := small
	preempt.PreemptMapTasks = true
	return []struct {
		name string
		cfg  Config
		tr   *trace.Trace
	}{
		{"dense", small, dense},
		{"sparse-ids", small, sparse},
		{"preempt", preempt, dense},
	}
}

// TestFoldDifferential: for every indexed policy under every shape, the
// Result a Fold callback sees — on one pool whose engine and scratch are
// dirty from the previous (different) cell — equals what Run returns on
// a fresh engine, field for field.
func TestFoldDifferential(t *testing.T) {
	var pool Pool
	for round := 0; round < 2; round++ {
		for _, sh := range foldShapes(t) {
			for _, p := range diffPolicies() {
				name := sh.name + "/" + p.name
				want, err := Run(sh.cfg, sh.tr, p.mk())
				if err != nil {
					t.Fatalf("%s: fresh run: %v", name, err)
				}
				called := false
				err = pool.Fold(sh.cfg, sh.tr, p.mk(), func(res *Result) {
					called = true
					if !reflect.DeepEqual(res, want) {
						t.Errorf("%s (round %d): folded Result differs from a fresh engine's Run", name, round)
					}
				})
				if err != nil {
					t.Fatalf("%s: fold: %v", name, err)
				}
				if !called {
					t.Fatalf("%s: fold did not call back", name)
				}
			}
		}
	}
}

// TestFoldLendsNothingPastCallback: once the callback returns, the
// scratch is emptied — no outcome or name rides on an idle engine — and
// a failed replay never calls back.
func TestFoldLendsNothingPastCallback(t *testing.T) {
	sh := foldShapes(t)[0]
	var pool Pool
	var lent *Result
	if err := pool.Fold(sh.cfg, sh.tr, sched.FIFO{}, func(res *Result) { lent = res }); err != nil {
		t.Fatal(err)
	}
	if len(lent.Jobs) != 0 {
		t.Fatalf("scratch still lists %d jobs after the callback", len(lent.Jobs))
	}
	for i, j := range lent.Jobs[:cap(lent.Jobs)] {
		if !reflect.DeepEqual(j, JobOutcome{}) {
			t.Fatalf("scratch slot %d still holds %q after the callback", i, j.Name)
		}
	}
	err := pool.Fold(Config{MapSlots: -1}, sh.tr, sched.FIFO{}, func(*Result) {
		t.Error("callback ran for a replay that failed to arm")
	})
	if err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestRunIntoReusesCapacity: RunInto overwrites every field of a dirty
// Result and keeps its Jobs array when it is large enough.
func TestRunIntoReusesCapacity(t *testing.T) {
	sh := foldShapes(t)[0]
	want, err := Run(sh.cfg, sh.tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Jobs: make([]JobOutcome, 3, 4*len(sh.tr.Jobs)), Events: 99, Makespan: 1e18}
	res.Jobs[0].Name = "stale"
	backing := unsafe.SliceData(res.Jobs)
	e, err := New(sh.cfg, sh.tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunInto(res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("RunInto into a dirty Result differs from Run")
	}
	if unsafe.SliceData(res.Jobs) != backing {
		t.Fatal("RunInto reallocated a Jobs array that was large enough")
	}
}

// TestSimJobSize pins what the engine holds per live job: a slot, which
// every arrival writes in full. A field added to simJob or JobInfo must
// show up here and be weighed, not slip in.
func TestSimJobSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(simJob{}); got != 256 {
		t.Fatalf("unsafe.Sizeof(simJob{}) = %d, want 256", got)
	}
}

// TestJobOutcomeSize pins what the engine holds per job of the trace, for
// good: one cache line of the Result's array, the replay's largest
// allocation (6.4 MB at 100 000 jobs). Anything per task belongs in the
// event stream, not here.
func TestJobOutcomeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(JobOutcome{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(JobOutcome{}) = %d, want 64", got)
	}
}

// TestSharedPoolPutBound: Put's one rule. An engine whose by-position
// table (the measure of its per-job arrays) is more than poolSlabSlack
// times the run it just finished is dropped, as is a
// snapshot-sealed one; everything else is pooled, with the caller's sink
// and policy released.
func TestSharedPoolPutBound(t *testing.T) {
	big, err := synth.MultiTenantTrace(poolSlabSlack*poolSmallSlab+1, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	cut := func(n int) *trace.Trace { return &trace.Trace{Name: "cut", Jobs: big.Jobs[:n]} }
	cfg := DefaultConfig()
	e := &Engine{}
	ran := func(tr *trace.Trace) *Engine {
		t.Helper()
		if err := e.Reset(cfg, tr, sched.FIFO{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	if !ran(big).poolable() {
		t.Fatal("engine that just filled its per-job arrays is not poolable")
	}
	if !ran(cut(poolSmallSlab + 1)).poolable() {
		t.Fatal("engine within poolSlabSlack × its last run is not poolable")
	}
	if ran(cut(poolSmallSlab)).poolable() {
		t.Fatal("engine with per-job arrays over poolSlabSlack × its last run is poolable")
	}
	// Dropped means the next Get builds: exact, whatever sync.Pool does.
	var pool Pool
	var reused bool
	pool.Put(e)
	fresh, err := pool.Observed(func(r bool) { reused = r }).Get(cfg, cut(poolSmallSlab), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if reused || fresh == e {
		t.Fatal("Put pooled an engine over the per-job bound")
	}
	if cap(fresh.slotOf) != poolSmallSlab || !fresh.poolable() {
		t.Fatalf("engine built in its place holds %d jobs and poolable = %v, want a right-sized, poolable one", cap(fresh.slotOf), fresh.poolable())
	}

	sinkCfg := cfg
	sinkCfg.Sink = &obs.RecordSink{}
	if err := fresh.Reset(sinkCfg, cut(50), sched.MaxEDF{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.RunEvents(10); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if fresh.poolable() {
		t.Fatal("snapshot-sealed engine is poolable: its forks may still read it")
	}
	if err := fresh.Reset(sinkCfg, cut(50), sched.MaxEDF{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Put(fresh)
	if fresh.sink != nil || fresh.cfg.Sink != nil || fresh.policy != nil {
		t.Fatal("pooled engine still holds its last caller's sink or policy")
	}
}

// TestSharedPoolObserved: an observer hears exactly its own handle's
// acquisitions, whichever entry point makes them, while the engines
// still come from and go back to the one pool underneath; the pool
// itself reports to nobody.
func TestSharedPoolObserved(t *testing.T) {
	sh := foldShapes(t)[0]
	var pool Pool
	var a, b, reused int
	pa := pool.Observed(func(r bool) {
		a++
		if r {
			reused++
		}
	})
	pb := pa.Observed(func(bool) { b++ }) // observes the pool, not the handle
	if _, err := pool.Run(sh.cfg, sh.tr, sched.FIFO{}); err != nil {
		t.Fatal(err)
	}
	if _, err := pa.Run(sh.cfg, sh.tr, sched.FIFO{}); err != nil {
		t.Fatal(err)
	}
	if err := pb.Fold(sh.cfg, sh.tr, sched.FIFO{}, func(*Result) {}); err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 1 {
		t.Fatalf("observers heard %d and %d acquisitions, want 1 and 1", a, b)
	}
	// sync.Pool may miss (a P switch between Put and Get; one Put in four
	// under -race), so the handle is given a few chances to draw the
	// engine the pool's own Run put back.
	for i := 0; reused == 0 && i < 50; i++ {
		if err := pa.Fold(sh.cfg, sh.tr, sched.FIFO{}, func(*Result) {}); err != nil {
			t.Fatal(err)
		}
	}
	if reused == 0 {
		t.Fatal("a handle never drew a warm engine from the pool it observes")
	}
}

// TestSharedPoolReleasesTrace: the pool outlives every trace it
// replayed, so an idle engine must not keep one alive for good — once
// no caller holds a trace, its templates are collectable within the few
// GC cycles sync.Pool takes to let an idle engine go.
func TestSharedPoolReleasesTrace(t *testing.T) {
	tr, err := synth.MultiTenantTrace(200, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(tr.Jobs[len(tr.Jobs)-1].Template, func(*trace.Template) { close(collected) })
	var pool Pool
	if err := pool.Fold(DefaultConfig(), tr, sched.MinEDF{}, func(*Result) {}); err != nil {
		t.Fatal(err)
	}
	tr = nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond): // finalizers run on their own goroutine
		}
	}
	t.Fatal("a template of a dropped trace is still reachable after ten GC cycles: the pool pins it")
}
