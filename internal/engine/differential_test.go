package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/sched/schedtest"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// This file is the correctness oracle for the engine's scheduling index
// (DESIGN.md §11): every indexable policy is replayed as the engine runs
// it by default and again forced through the paper's per-slot scan
// (schedtest.ScanOnly hides the concrete type the engine keys the index
// on), and the two must be byte-identical — same JobOutcomes, same
// makespan, same event count, and the same observability event sequence
// in the same order. The scan path is the paper's semantics; any
// divergence is an index bug by definition.

// diffPolicies returns the policies the engine indexes, as factories.
func diffPolicies() []struct {
	name string
	mk   func() sched.Policy
} {
	return []struct {
		name string
		mk   func() sched.Policy
	}{
		{"FIFO", func() sched.Policy { return sched.FIFO{} }},
		{"MaxEDF", func() sched.Policy { return sched.MaxEDF{} }},
		{"MinEDF-avg", func() sched.Policy { return sched.MinEDF{} }},
		{"MinEDF-low", func() sched.Policy { return sched.MinEDF{Estimate: sched.EstimatorLow} }},
		{"MinEDF-up", func() sched.Policy { return sched.MinEDF{Estimate: sched.EstimatorUp} }},
		{"Fair", func() sched.Policy { return sched.Fair{} }},
		{"Capacity", func() sched.Policy { return sched.Capacity{Shares: []float64{3, 1, 2}} }},
	}
}

// replayRecorded runs one replay with a recording sink attached.
func replayRecorded(t *testing.T, cfg Config, tr *trace.Trace, p sched.Policy) (*Result, *obs.RecordSink) {
	t.Helper()
	sink := &obs.RecordSink{}
	cfg.Sink = sink
	res, err := Run(cfg, tr, p)
	if err != nil {
		t.Fatalf("%s replay: %v", p.Name(), err)
	}
	return res, sink
}

// assertIdenticalReplays compares the scan and indexed replays of one
// (cfg, trace, policy) cell down to the observability stream.
func assertIdenticalReplays(t *testing.T, cfg Config, tr *trace.Trace, mk func() sched.Policy) {
	t.Helper()
	scanPolicy := schedtest.ScanOnly(mk())
	indexedPolicy := mk()
	// Guard against a silently disabled index, or an oracle that is not
	// one: the engine must resolve the index for the bare value at Reset
	// and must not for the wrapped one.
	for _, c := range []struct {
		p       sched.Policy
		indexed bool
	}{{indexedPolicy, true}, {scanPolicy, false}} {
		e, err := New(cfg, tr, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.batch != nil; got != c.indexed {
			t.Fatalf("engine on %T: scheduling index in use = %v, want %v", c.p, got, c.indexed)
		}
	}

	scanRes, scanSink := replayRecorded(t, cfg, tr, scanPolicy)
	idxRes, idxSink := replayRecorded(t, cfg, tr, indexedPolicy)
	assertSameReplay(t, scanPolicy, scanRes, scanSink, idxRes, idxSink)
}

// assertSameReplay compares a replay on the scan path with its replay on
// the scheduling index: outcomes, totals, stream and run counters.
func assertSameReplay(t *testing.T, scanPolicy sched.Policy, scanRes *Result, scanSink *obs.RecordSink, idxRes *Result, idxSink *obs.RecordSink) {
	t.Helper()
	if scanRes.Events != idxRes.Events || scanRes.Makespan != idxRes.Makespan {
		t.Fatalf("%s: events %d vs %d, makespan %v vs %v",
			scanPolicy.Name(), scanRes.Events, idxRes.Events, scanRes.Makespan, idxRes.Makespan)
	}
	if !reflect.DeepEqual(scanRes.Jobs, idxRes.Jobs) {
		for i := range scanRes.Jobs {
			if !reflect.DeepEqual(scanRes.Jobs[i], idxRes.Jobs[i]) {
				t.Fatalf("%s: job %d outcome diverged:\n scan    %+v\n indexed %+v",
					scanPolicy.Name(), scanRes.Jobs[i].ID, scanRes.Jobs[i], idxRes.Jobs[i])
			}
		}
		t.Fatalf("%s: job outcomes diverged", scanPolicy.Name())
	}
	if len(scanSink.Events) != len(idxSink.Events) {
		t.Fatalf("%s: obs stream length %d vs %d",
			scanPolicy.Name(), len(scanSink.Events), len(idxSink.Events))
	}
	for i := range scanSink.Events {
		if scanSink.Events[i] != idxSink.Events[i] {
			t.Fatalf("%s: obs event %d diverged:\n scan    %+v\n indexed %+v",
				scanPolicy.Name(), i, scanSink.Events[i], idxSink.Events[i])
		}
	}
	if scanSink.Counters != idxSink.Counters {
		t.Fatalf("%s: run counters diverged:\n scan    %+v\n indexed %+v",
			scanPolicy.Name(), scanSink.Counters, idxSink.Counters)
	}
}

// TestDifferentialIndexedVsScan replays every indexable policy on
// multi-tenant traces of increasing concurrency and asserts the fast
// path is byte-identical to the reference scan.
func TestDifferentialIndexedVsScan(t *testing.T) {
	sizes := []int{10, 100, 1000}
	for _, n := range sizes {
		tr, err := synth.MultiTenantTrace(n, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range diffPolicies() {
			pc := pc
			t.Run(pc.name+"/"+tr.Name, func(t *testing.T) {
				assertIdenticalReplays(t, DefaultConfig(), tr, pc.mk)
			})
		}
	}
}

// TestDifferentialIndexedVsScan5k is the acceptance-scale tier: all
// indexable policies at 5000 concurrent jobs. Under -race the tier
// drops to 1000 jobs (see raceDetectorEnabled) — the reference scan
// replays are quadratic by design and the detector's overhead would
// dominate the suite without adding coverage over the plain 5k run.
func TestDifferentialIndexedVsScan5k(t *testing.T) {
	n := 5000
	if raceDetectorEnabled {
		n = 1000
	}
	if testing.Short() {
		t.Skip("short mode: 5k differential tier skipped")
	}
	tr, err := synth.MultiTenantTrace(n, rand.New(rand.NewSource(5000)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range diffPolicies() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			assertIdenticalReplays(t, DefaultConfig(), tr, pc.mk)
		})
	}
}

// TestDifferentialIndexedPreemption replays the deadline policies with
// map-task preemption enabled, exercising the preemption index (victim
// selection) together with the batch path's OnJobUpdate flow on kills.
func TestDifferentialIndexedPreemption(t *testing.T) {
	tr, err := synth.MultiTenantTrace(600, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PreemptMapTasks = true
	for _, pc := range diffPolicies() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			assertIdenticalReplays(t, cfg, tr, pc.mk)
		})
	}
}

// TestDifferentialCompletionRule pins which task completions reach the
// scheduling index (Engine.completionCounts, DESIGN.md §11) against the
// scan, where every decision reads the counters afresh. Under both ends of
// the slowstart range, with and without preemption, every policy replays
// byte-identically, and so does a MinEDF replay paused midway: switched to
// FIFO by SetPolicy, which re-admits the live jobs unsized, and forked,
// which keeps their MinEDF caps — capped jobs whose completions must
// still reach the index the fork rebuilt.
func TestDifferentialCompletionRule(t *testing.T) {
	tr, err := synth.MultiTenantTrace(300, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	for _, slowstart := range []float64{0.05, 1} {
		for _, preempt := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.MinMapPercentCompleted, cfg.PreemptMapTasks = slowstart, preempt
			name := fmt.Sprintf("slowstart=%v/preempt=%v", slowstart, preempt)
			for _, pc := range diffPolicies() {
				t.Run(name+"/"+pc.name, func(t *testing.T) {
					assertIdenticalReplays(t, cfg, tr, pc.mk)
				})
			}
			t.Run(name+"/MinEDF-to-FIFO", func(t *testing.T) {
				assertIdenticalSwitch(t, cfg, tr)
			})
		}
	}
}

// assertIdenticalSwitch replays tr under MinEDF to half its events, then
// under FIFO switched by SetPolicy, and on a fork of the paused MinEDF
// replay, on the scan path and on the scheduling index, and compares the
// two.
func assertIdenticalSwitch(t *testing.T, cfg Config, tr *trace.Trace) {
	t.Helper()
	full, err := Run(cfg, tr, sched.MinEDF{})
	if err != nil {
		t.Fatal(err)
	}
	at := full.Events / 2
	type replay struct {
		res  *Result
		sink *obs.RecordSink
	}
	// run replays both switches with the policies wrap makes, and counts
	// the unfinished capped jobs the fork took over.
	run := func(wrap func(sched.Policy) sched.Policy) (set, fork replay, capped int) {
		e, sink := pauseAt(t, cfg, tr, wrap(sched.MinEDF{}), at)
		if err := e.SetPolicy(wrap(sched.FIFO{})); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		set = replay{res, sink}
		src, _ := pauseAt(t, cfg, tr, wrap(sched.MinEDF{}), at)
		fork.sink = &obs.RecordSink{}
		f, err := src.Fork(ForkOptions{Sink: fork.sink})
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range f.active {
			if (info.WantedMaps != 0 || info.WantedReduces != 0) && !info.Done() {
				capped++
			}
		}
		if fork.res, err = f.Run(); err != nil {
			t.Fatal(err)
		}
		return set, fork, capped
	}
	scanSet, scanFork, _ := run(schedtest.ScanOnly)
	idxSet, idxFork, capped := run(func(p sched.Policy) sched.Policy { return p })
	if capped == 0 {
		t.Fatalf("no capped job unfinished at event %d: the fork tests nothing", at)
	}
	assertSameReplay(t, schedtest.ScanOnly(sched.FIFO{}), scanSet.res, scanSet.sink, idxSet.res, idxSet.sink)
	assertSameReplay(t, schedtest.ScanOnly(sched.MinEDF{}), scanFork.res, scanFork.sink, idxFork.res, idxFork.sink)
}

// TestDifferentialIndexedAblations runs the shuffle-model ablations and
// a tight-slot configuration through both paths: eligibility churn
// (ReduceReady gates, slot starvation) differs markedly across these,
// and the index must track all of it.
func TestDifferentialIndexedAblations(t *testing.T) {
	tr, err := synth.MultiTenantTrace(300, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"tight-slots", Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.5}},
		{"no-shuffle", Config{MapSlots: 64, ReduceSlots: 64, MinMapPercentCompleted: 0.05, NoShuffleModel: true}},
		{"no-first-shuffle", Config{MapSlots: 64, ReduceSlots: 64, MinMapPercentCompleted: 0.05, NoFirstShuffleSpecialCase: true}},
		// The tier-1 floor lists this row as "spans", for a knob it once set.
		{"spans", Config{MapSlots: 16, ReduceSlots: 16, MinMapPercentCompleted: 0.05}},
	}
	for _, cc := range cfgs {
		for _, pc := range diffPolicies() {
			pc, cc := pc, cc
			t.Run(cc.name+"/"+pc.name, func(t *testing.T) {
				assertIdenticalReplays(t, cc.cfg, tr, pc.mk)
			})
		}
	}
}

// sparseIDTrace is a hand-built trace whose job IDs are non-dense, so
// engine dispatch falls back to the indexOf map.
func sparseIDTrace(t *testing.T) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	tr := &trace.Trace{Name: "sparse-ids"}
	for i := 0; i < 40; i++ {
		tpl := &trace.Template{
			AppName:      "sparse",
			NumMaps:      1 + rng.Intn(4),
			NumReduces:   rng.Intn(2),
			MapDurations: []float64{5, 7, 9, 11},
		}
		tpl.MapDurations = tpl.MapDurations[:tpl.NumMaps]
		if tpl.NumReduces > 0 {
			tpl.TypicalShuffle = []float64{3}
			tpl.FirstShuffle = []float64{2}
			tpl.ReduceDurations = []float64{4}
		}
		job := &trace.Job{
			ID:       i*7 + 3, // sparse, non-zero-based
			Arrival:  float64(i) * 0.25,
			Template: tpl,
		}
		if i%2 == 0 {
			job.Deadline = job.Arrival + 50 + float64(rng.Intn(100))
		}
		tr.Jobs = append(tr.Jobs, job)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDifferentialIndexedSparseIDs replays the sparse-ID trace — the
// index returns job IDs the engine resolves through the indexOf map and
// must not assume density either.
func TestDifferentialIndexedSparseIDs(t *testing.T) {
	tr := sparseIDTrace(t)
	for _, pc := range diffPolicies() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			assertIdenticalReplays(t, DefaultConfig(), tr, pc.mk)
		})
	}
}

// TestCapacityNegativeJobIDs: a trace may carry negative job IDs, and
// Capacity buckets jobs by ID. The two-job trace with IDs −3 and −1
// once crashed the scheduling index (index out of range [-1]); it and
// the sparse-ID trace with every ID negated now replay under Capacity
// exactly as under the scan.
func TestCapacityNegativeJobIDs(t *testing.T) {
	two := sparseIDTrace(t)
	two.Name, two.Jobs = "negative-ids", two.Jobs[:2]
	two.Jobs[0].ID, two.Jobs[1].ID = -3, -1
	negated := sparseIDTrace(t)
	for _, j := range negated.Jobs {
		j.ID = -j.ID
	}
	capacity := func() sched.Policy { return sched.Capacity{Shares: []float64{0.5, 0.5}} }
	for _, tr := range []*trace.Trace{two, negated} {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		assertIdenticalReplays(t, DefaultConfig(), tr, capacity)
		assertIdenticalReplays(t, DefaultConfig(), tr, diffPolicies()[6].mk)
	}
}

// TestIndexedEngineReuseDeterministic re-runs one engine through Reset
// and asserts the second replay is byte-identical — the recycled-index
// leg of the engine-reuse contract.
func TestIndexedEngineReuseDeterministic(t *testing.T) {
	tr, err := synth.MultiTenantTrace(200, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range diffPolicies() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			p := pc.mk()
			cfg := DefaultConfig()
			cfg.PreemptMapTasks = true
			e, err := New(cfg, tr, p)
			if err != nil {
				t.Fatal(err)
			}
			first, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Reset(cfg, tr, p); err != nil {
				t.Fatal(err)
			}
			second, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatal("reused engine + recycled index diverged from first run")
			}
		})
	}
}
