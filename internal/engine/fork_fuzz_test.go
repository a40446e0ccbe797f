package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"simmr/internal/synth"
)

// FuzzForkAtEvent drives the fork differential oracle from fuzzed
// inputs: an arbitrary trace seed, an arbitrary branch-point event
// index (the corpus seeds t=0, mid-run, and beyond-the-end; the mod
// wrap keeps mutated indices in a widened range that still covers all
// three regimes), any policy from the suite, and preemption on or off.
// Both sides move the deadline of the first job still to arrive and, for
// odd seeds, swap to the next policy of the suite. The property is the
// tentpole invariant itself: fork-then-run equals pause-then-run on a
// fresh engine, byte for byte.
func FuzzForkAtEvent(f *testing.F) {
	f.Add(int64(1), uint64(0), uint8(0), false)     // t=0 fork
	f.Add(int64(2), uint64(100), uint8(2), true)    // mid-run, MinEDF, preemption
	f.Add(int64(3), uint64(1<<40), uint8(5), false) // beyond the end
	f.Add(int64(4), uint64(37), uint8(6), true)     // Capacity mid-preemption
	f.Add(int64(99), uint64(1), uint8(1), true)     // right after the first event
	f.Fuzz(func(t *testing.T, seed int64, forkAt uint64, policyIdx uint8, preempt bool) {
		tr, err := synth.MultiTenantTrace(30, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Skip()
		}
		spreadArrivals(tr)
		pcs := diffPolicies()
		mk := pcs[int(policyIdx)%len(pcs)].mk
		swap := pcs[(int(policyIdx)+1)%len(pcs)].mk
		edit := func(e *Engine) {
			if id, arr := firstUnarrivedID(e); id >= 0 {
				if err := e.SetDeadline(id, arr+300); err != nil {
					t.Fatal(err)
				}
			}
			if seed&1 != 0 {
				if err := e.SetPolicy(swap()); err != nil {
					t.Fatal(err)
				}
			}
		}
		cfg := DefaultConfig()
		cfg.PreemptMapTasks = preempt

		ref, err := Run(cfg, tr, mk())
		if err != nil {
			t.Fatal(err)
		}
		// Wrap huge indices into [0, total+16): past-the-end forks stay
		// reachable without every input degenerating into one.
		forkAt %= ref.Events + 16

		prefix, err := New(cfg, tr, mk())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prefix.RunEvents(forkAt); err != nil {
			t.Fatal(err)
		}
		snap, err := prefix.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fork, err := snap.Fork(ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		edit(fork)
		forkRes, err := fork.Run()
		if err != nil {
			t.Fatal(err)
		}

		scratch, err := New(cfg, tr, mk())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scratch.RunEvents(forkAt); err != nil {
			t.Fatal(err)
		}
		edit(scratch)
		scratchRes, err := scratch.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(forkRes, scratchRes) {
			t.Fatalf("fork at event %d diverged from scratch (seed %d, policy %s, preempt %v)",
				forkAt, seed, mk().Name(), preempt)
		}
	})
}
