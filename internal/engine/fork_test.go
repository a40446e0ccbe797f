package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/sched/schedtest"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// This file is the correctness oracle for engine forking
// (DESIGN.md §12): a fork taken at event k and run to completion must
// be byte-identical — JobOutcomes, event counts, makespan, obs stream,
// RunEnd counters — to a from-scratch replay paused at the same event
// with the same mutations applied. The scratch path uses the very same
// RunEvents + mutation methods, so any divergence is a fork bug (state
// left uncopied, a missed handle remap, index rebuild drift), not a
// semantics question.

// forkMutation is one what-if edit applied identically to the fork and
// to the paused scratch replay. Implementations must be deterministic
// functions of the paused engine's state, so both applications pick the
// same jobs and values.
type forkMutation struct {
	name  string
	apply func(t *testing.T, e *Engine)
}

// smallTemplate builds a small well-formed template for hand-built traces.
func smallTemplate() *trace.Template {
	return &trace.Template{
		AppName:         "whatif",
		NumMaps:         6,
		NumReduces:      2,
		MapDurations:    []float64{4, 5, 6, 7, 8, 9},
		FirstShuffle:    []float64{2, 2},
		TypicalShuffle:  []float64{3, 3},
		ReduceDurations: []float64{5, 6},
	}
}

// firstUnarrivedID returns the lowest-position job whose arrival event
// has not fired yet, or -1.
func firstUnarrivedID(e *Engine) (int, float64) {
	for p := range e.out {
		if !e.arrived(p) {
			j := e.tr.Jobs[p]
			return j.ID, j.Arrival
		}
	}
	return -1, 0
}

func forkMutations(swap func() sched.Policy) []forkMutation {
	return []forkMutation{
		{"none", func(t *testing.T, e *Engine) {}},
		{"deadline", moveFirstDeadline},
		{"swap-policy", func(t *testing.T, e *Engine) { swapPolicy(t, e, swap) }},
		{"deadline+swap", func(t *testing.T, e *Engine) {
			moveFirstDeadline(t, e)
			swapPolicy(t, e, swap)
		}},
	}
}

// moveFirstDeadline tightens the deadline of the first job still to
// arrive; past the last arrival there is nothing to move.
func moveFirstDeadline(t *testing.T, e *Engine) {
	if id, arr := firstUnarrivedID(e); id >= 0 {
		if err := e.SetDeadline(id, arr+137.5); err != nil {
			t.Fatalf("SetDeadline: %v", err)
		}
	}
}

func swapPolicy(t *testing.T, e *Engine, swap func() sched.Policy) {
	if err := e.SetPolicy(swap()); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
}

// spreadArrivals stretches a synthetic burst 400-fold, deadlines moving
// with their jobs, so that jobs are still to arrive at a branch point
// deep into the replay and SetDeadline has one to move.
func spreadArrivals(tr *trace.Trace) {
	for _, j := range tr.Jobs {
		shift := j.Arrival * 399
		j.Arrival += shift
		if j.Deadline > 0 {
			j.Deadline += shift
		}
	}
}

// pauseAt arms a fresh engine with a recording sink and runs it to the
// fork point.
func pauseAt(t *testing.T, cfg Config, tr *trace.Trace, p sched.Policy, events uint64) (*Engine, *obs.RecordSink) {
	t.Helper()
	sink := &obs.RecordSink{}
	cfg.Sink = sink
	e, err := New(cfg, tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunEvents(events); err != nil {
		t.Fatalf("RunEvents(%d): %v", events, err)
	}
	return e, sink
}

// assertForkMatchesScratch is the per-cell oracle. mk builds the replay
// policy; the fork shares the snapshot's policy value and — on the
// indexed variants — must rebuild its own scheduling index by
// re-admitting the live jobs.
func assertForkMatchesScratch(t *testing.T, cfg Config, tr *trace.Trace, mk func() sched.Policy, forkEvents uint64, mut forkMutation) {
	t.Helper()

	// Fork path: prefix replay to the branch point, seal, branch.
	prefix, prefixSink := pauseAt(t, cfg, tr, mk(), forkEvents)
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	forkSink := &obs.RecordSink{}
	fork, err := snap.Fork(ForkOptions{Sink: forkSink})
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	mut.apply(t, fork)
	forkRes, err := fork.Run()
	if err != nil {
		t.Fatalf("fork Run: %v", err)
	}

	// Scratch path: same pause, same mutation methods, one engine.
	scratch, scratchSink := pauseAt(t, cfg, tr, mk(), forkEvents)
	mut.apply(t, scratch)
	scratchRes, err := scratch.Run()
	if err != nil {
		t.Fatalf("scratch Run: %v", err)
	}

	// Everything but the outcomes (events, makespan, peaks) in one look.
	forkTotals, scratchTotals := *forkRes, *scratchRes
	forkTotals.Jobs, scratchTotals.Jobs = nil, nil
	if !reflect.DeepEqual(forkTotals, scratchTotals) {
		t.Fatalf("fork: totals %+v, scratch %+v", forkTotals, scratchTotals)
	}
	if !reflect.DeepEqual(forkRes.Jobs, scratchRes.Jobs) {
		for i := range scratchRes.Jobs {
			if i >= len(forkRes.Jobs) || !reflect.DeepEqual(forkRes.Jobs[i], scratchRes.Jobs[i]) {
				t.Fatalf("job outcome %d diverged:\n fork    %+v\n scratch %+v",
					i, forkRes.Jobs[i], scratchRes.Jobs[i])
			}
		}
		t.Fatal("job outcomes diverged")
	}

	// Obs stream: prefix events ++ fork events must equal the scratch
	// stream — the branch's logical history is whole.
	if got, want := len(prefixSink.Events)+len(forkSink.Events), len(scratchSink.Events); got != want {
		t.Fatalf("obs stream length %d (prefix %d + fork %d), want %d",
			got, len(prefixSink.Events), len(forkSink.Events), want)
	}
	for i, want := range scratchSink.Events {
		var got obs.Event
		if i < len(prefixSink.Events) {
			got = prefixSink.Events[i]
		} else {
			got = forkSink.Events[i-len(prefixSink.Events)]
		}
		if got != want {
			t.Fatalf("obs event %d diverged:\n fork-side %+v\n scratch   %+v", i, got, want)
		}
	}
	if prefixSink.Ended {
		t.Fatal("prefix sink saw RunEnd before the branch finished")
	}
	if !forkSink.Ended || forkSink.Counters != scratchSink.Counters {
		t.Fatalf("run counters diverged:\n fork    %+v (ended %v)\n scratch %+v",
			forkSink.Counters, forkSink.Ended, scratchSink.Counters)
	}
}

// forkPolicyVariants enumerates the full PR 5 policy suite on both
// scheduling paths — "indexed" is the bare value as every caller passes
// it, "scan" the same value forced through the two-call interface — with
// the matching policy-swap target for the swap-policy mutation (scan
// swaps to scan, indexed to indexed).
func forkPolicyVariants() []struct {
	name string
	mk   func() sched.Policy
	swap func() sched.Policy
} {
	var out []struct {
		name string
		mk   func() sched.Policy
		swap func() sched.Policy
	}
	for _, pc := range diffPolicies() {
		pc := pc
		out = append(out,
			struct {
				name string
				mk   func() sched.Policy
				swap func() sched.Policy
			}{pc.name + "/scan", func() sched.Policy { return schedtest.ScanOnly(pc.mk()) },
				func() sched.Policy { return schedtest.ScanOnly(sched.MaxEDF{}) }},
			struct {
				name string
				mk   func() sched.Policy
				swap func() sched.Policy
			}{pc.name + "/indexed", pc.mk, func() sched.Policy { return sched.MaxEDF{} }},
		)
	}
	return out
}

// TestForkDifferential is the headline oracle: every policy in the PR 5
// suite, scan and indexed, forked at randomized event indices (plus the
// t=0 and beyond-the-end edges) with each mutation kind, must match the
// from-scratch replay byte-for-byte.
func TestForkDifferential(t *testing.T) {
	jobs := 120
	if raceDetectorEnabled {
		jobs = 50
	}
	tr, err := synth.MultiTenantTrace(jobs, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	spreadArrivals(tr)
	total, err := Run(DefaultConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))
	for _, pv := range forkPolicyVariants() {
		pv := pv
		t.Run(pv.name, func(t *testing.T) {
			muts := forkMutations(pv.swap)
			// One randomized interior fork point per mutation, plus the
			// edges on the "none" mutation.
			forkAt := uint64(rng.Int63n(int64(total.Events-2))) + 1
			for _, mut := range muts[1:] {
				mut := mut
				t.Run(mut.name, func(t *testing.T) {
					assertForkMatchesScratch(t, DefaultConfig(), tr, pv.mk, forkAt, mut)
				})
			}
			// t=0: nothing fired, all arrivals pending.
			t.Run("none", func(t *testing.T) {
				assertForkMatchesScratch(t, DefaultConfig(), tr, pv.mk, 0, muts[0])
			})
			// Beyond the end: a fork of a finished replay.
			t.Run("past-end", func(t *testing.T) {
				assertForkMatchesScratch(t, DefaultConfig(), tr, pv.mk, total.Events+7, muts[0])
			})
			// Deep branch point (~90%), BenchmarkBranchSet's shape.
			t.Run("deep", func(t *testing.T) {
				assertForkMatchesScratch(t, DefaultConfig(), tr, pv.mk, total.Events*9/10, forkMutations(pv.swap)[3])
			})
		})
	}
}

// TestForkDifferentialPreemption forks mid-flight with map-task
// preemption on: running-map event handles and the preemption index are
// the hardest state to remap, and deadline policies churn them.
func TestForkDifferentialPreemption(t *testing.T) {
	jobs := 200
	if raceDetectorEnabled {
		jobs = 60
	}
	tr, err := synth.MultiTenantTrace(jobs, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	spreadArrivals(tr)
	cfg := DefaultConfig()
	cfg.PreemptMapTasks = true
	total, err := Run(cfg, tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7777))
	for _, pv := range forkPolicyVariants() {
		pv := pv
		t.Run(pv.name, func(t *testing.T) {
			for _, mut := range forkMutations(pv.swap) {
				mut := mut
				forkAt := uint64(rng.Int63n(int64(total.Events-2))) + 1
				t.Run(mut.name, func(t *testing.T) {
					assertForkMatchesScratch(t, cfg, tr, pv.mk, forkAt, mut)
				})
			}
		})
	}
}

// TestForkDifferentialConfigs forks under the ablation configs — tight
// slots (starvation churn), no-shuffle, a mid-size cluster with
// preemption — at a mid-trace branch point.
func TestForkDifferentialConfigs(t *testing.T) {
	tr, err := synth.MultiTenantTrace(80, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	spreadArrivals(tr)
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"tight-slots", Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.5}},
		{"no-shuffle", Config{MapSlots: 64, ReduceSlots: 64, MinMapPercentCompleted: 0.05, NoShuffleModel: true}},
		// The tier-1 floor lists this row as "spans", for a knob it once set.
		{"spans", Config{MapSlots: 16, ReduceSlots: 16, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}},
	}
	for _, cc := range cfgs {
		cc := cc
		total, err := Run(cc.cfg, tr, sched.MinEDF{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pv := range forkPolicyVariants() {
			pv := pv
			t.Run(cc.name+"/"+pv.name, func(t *testing.T) {
				mut := forkMutations(pv.swap)[3] // deadline+swap
				assertForkMatchesScratch(t, cc.cfg, tr, pv.mk, total.Events/2, mut)
			})
		}
	}
}

// TestForkDifferentialSparseIDs forks a replay whose job IDs force the
// indexOf map path: the fork resolves every ID — its own events' and
// SetDeadline's — through the map it borrows from the snapshot.
func TestForkDifferentialSparseIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := &trace.Trace{Name: "sparse-fork"}
	for i := 0; i < 30; i++ {
		tpl := smallTemplate()
		job := &trace.Job{
			ID:       i*11 + 5,
			Arrival:  float64(i) * 2,
			Template: tpl,
		}
		if i%2 == 0 {
			job.Deadline = job.Arrival + 120 + float64(rng.Intn(80))
		}
		tr.Jobs = append(tr.Jobs, job)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	total, err := Run(DefaultConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pv := range forkPolicyVariants() {
		pv := pv
		t.Run(pv.name, func(t *testing.T) {
			for _, mut := range forkMutations(pv.swap) {
				mut := mut
				t.Run(mut.name, func(t *testing.T) {
					assertForkMatchesScratch(t, DefaultConfig(), tr, pv.mk, total.Events/3, mut)
				})
			}
		})
	}
}

// TestForkConcurrent fans 8 forks out of one snapshot from 8 goroutines
// — under -race this is the lock-free shared-snapshot proof, and, every
// fork sharing the snapshot's one MinEDF value, the proof that the
// scheduling index lives in the engines and not in the policy. Each fork
// applies a distinct mutation — a deadline moved, the odd ones a policy
// swapped too; each must match its own serial scratch.
func TestForkConcurrent(t *testing.T) {
	tr, err := synth.MultiTenantTrace(60, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	spreadArrivals(tr)
	cfg := DefaultConfig()
	cfg.PreemptMapTasks = true
	total, err := Run(cfg, tr, sched.MinEDF{})
	if err != nil {
		t.Fatal(err)
	}
	forkAt := total.Events / 2

	prefix, _ := pauseAt(t, cfg, tr, sched.MinEDF{}, forkAt)
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// edit moves branch i's deadline by i seconds, and swaps the odd
	// branches to a policy of the suite.
	pcs := diffPolicies()
	edit := func(e *Engine, i int) error {
		id, arr := firstUnarrivedID(e)
		if id < 0 {
			return fmt.Errorf("no job left to arrive at event %d", forkAt)
		}
		if err := e.SetDeadline(id, arr+200+float64(i)); err != nil {
			return err
		}
		if i%2 == 1 {
			return e.SetPolicy(pcs[i%len(pcs)].mk())
		}
		return nil
	}

	const branches = 8
	results := make([]*Result, branches)
	errs := make([]error, branches)
	var wg sync.WaitGroup
	wg.Add(branches)
	for i := 0; i < branches; i++ {
		go func(i int) {
			defer wg.Done()
			f, err := snap.Fork(ForkOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			if errs[i] = edit(f, i); errs[i] == nil {
				results[i], errs[i] = f.Run()
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < branches; i++ {
		if errs[i] != nil {
			t.Fatalf("branch %d: %v", i, errs[i])
		}
		scratch, _ := pauseAt(t, cfg, tr, sched.MinEDF{}, forkAt)
		if err := edit(scratch, i); err != nil {
			t.Fatal(err)
		}
		want, err := scratch.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("concurrent branch %d diverged from its serial scratch", i)
		}
	}
}

// TestForkIntoRecyclesEngine pins the pooled-fork path: ForkInto a dirty
// used engine must produce the same branch as a fresh Fork, and the
// steady-state re-fork must not grow allocations.
func TestForkIntoRecyclesEngine(t *testing.T) {
	tr, err := synth.MultiTenantTrace(80, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	total, err := Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	prefix, _ := pauseAt(t, cfg, tr, sched.FIFO{}, total.Events/2)
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := snap.Fork(ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := want.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Dirty destination: a full unrelated replay, then recycle it.
	other, err := synth.MultiTenantTrace(40, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(cfg, other, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Run(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := snap.ForkInto(dst, ForkOptions{}); err != nil {
			t.Fatal(err)
		}
		got, err := dst.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantRes) {
			t.Fatalf("recycled fork round %d diverged from fresh fork", round)
		}
	}
}

// TestForkStatsAccounting: BytesCopied is what ForkInto copied — the
// materialized events, the live jobs' slots and the outcomes of the jobs
// arrived so far — and it is final when the fork is armed: a branch
// borrows nothing it could copy later, so its Run moves no byte count.
func TestForkStatsAccounting(t *testing.T) {
	tr, err := synth.MultiTenantTrace(100, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	total, err := Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	var early uint64
	for _, at := range []uint64{0, total.Events * 9 / 10} {
		prefix, _ := pauseAt(t, cfg, tr, sched.FIFO{}, at)
		snap, err := prefix.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fork, err := snap.Fork(ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		arrived := 0
		for p := range prefix.out {
			if prefix.arrived(p) {
				arrived++
			}
		}
		events := uint64(prefix.q.Len() - prefix.q.Preloaded())
		want := events*eventBytes + uint64(len(prefix.active))*jobBytes + uint64(arrived)*outcomeBytes
		got := fork.ForkStats().BytesCopied
		if got != want || (at > 0 && events == 0) {
			t.Fatalf("fork at event %d copied %d B, want %d B (%d events, %d live jobs, %d outcomes)",
				at, got, want, events, len(prefix.active), arrived)
		}
		if at == 0 {
			early = got
		} else if got <= early {
			t.Fatalf("fork at event %d copied %d B, no more than the %d B of a fork at event 0", at, got, early)
		}
		if _, err := fork.Run(); err != nil {
			t.Fatal(err)
		}
		if after := fork.ForkStats().BytesCopied; after != got {
			t.Fatalf("BytesCopied moved during the branch's Run: %d -> %d", got, after)
		}
		if s, err := prefix.Snapshot(); err != nil || s != snap {
			t.Fatalf("Snapshot not idempotent: %v %v", s, err)
		}
	}
}

// TestForkAPIErrors pins the guard rails: sealed engines reject Run and
// mutation, destinations can't be the source or sealed, a fork can't be
// sealed, mutations validate their inputs.
func TestForkAPIErrors(t *testing.T) {
	tr, err := synth.MultiTenantTrace(20, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()

	e, err := New(cfg, tr, sched.MinEDF{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunEvents(10); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("Run on a sealed engine did not error")
	}
	if err := e.SetDeadline(tr.Jobs[len(tr.Jobs)-1].ID, 0); err == nil {
		t.Fatal("SetDeadline on a sealed engine did not error")
	}
	if err := snap.ForkInto(e, ForkOptions{}); err == nil {
		t.Fatal("ForkInto the snapshot's own source did not error")
	}

	f, err := snap.Fork(ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := f.Snapshot(); err == nil || s != nil {
		t.Fatal("Snapshot on a fork did not error")
	}
	if _, err := f.Fork(ForkOptions{}); err == nil {
		t.Fatal("Fork of a fork did not error")
	}
	if err := f.SetDeadline(0, 50); err == nil {
		t.Fatal("SetDeadline on an arrived job did not error")
	}
	if err := f.SetDeadline(424242, 50); err == nil {
		t.Fatal("SetDeadline on an unknown job did not error")
	}
	if err := f.SetPolicy(nil); err == nil {
		t.Fatal("SetPolicy(nil) did not error")
	}

	// Reset un-seals: the source engine is an ordinary engine again.
	if err := e.Reset(cfg, tr, sched.MinEDF{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run after un-sealing Reset: %v", err)
	}

	// Mutations on an idle (never-started) engine are rejected.
	idle, err := New(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.SetDeadline(tr.Jobs[len(tr.Jobs)-1].ID, 0); err == nil {
		t.Fatal("SetDeadline on an idle engine did not error")
	}
	if err := idle.SetPolicy(sched.MaxEDF{}); err == nil {
		t.Fatal("SetPolicy on an idle engine did not error")
	}

	// A drained replay seals Done, and its fork is already finished.
	done, _ := pauseAt(t, cfg, tr, sched.FIFO{}, 1<<62)
	doneSnap, err := done.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if doneSnap.e.remaining != 0 {
		t.Fatal("snapshot of a drained replay is not Done")
	}
}
