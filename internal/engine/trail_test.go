package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// This file checks the rule of DESIGN.md §5, "Stretches below the peak"
// (Pool.RunTrail, Pool.FoldTrail): a replay that follows another's trail
// copies the stretches its cluster repeats, and its Result is the one its
// own replay gives, every field of it.

// trailTraces are two seeded sparse streams, whose cluster empties before
// many of their arrivals, a dense production trace and a burst, whose
// cluster is empty only before their first.
func trailTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	prod, err := synth.ProductionTrace(12, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	burst, err := synth.MultiTenantTrace(60, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	burst.Name = "burst"
	for _, j := range burst.Jobs {
		j.Arrival = 0
	}
	return []*trace.Trace{sparseStream(t, 300, 1), sparseStream(t, 300, 2), prod, burst}
}

// around returns slot counts of a kind below, at and above a replay's
// peak of that kind on a cluster of ran slots, and ran itself.
func around(peak, ran int) []int {
	var out []int
	for _, c := range []int{peak / 2, peak, peak + 1, ran} {
		if c >= 1 && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// followed folds tr under cfg and policy following trail on pool, checks
// the Result against want, and returns how many outcomes it copied. A
// copy copies some of the Result's events exactly when it copies an
// outcome, as every stretch begins with an arrival.
func followed(t *testing.T, pool *Pool, cfg Config, tr *trace.Trace, policy sched.Policy, trail *Trail, want *Result) uint64 {
	t.Helper()
	var n int
	if err := pool.FoldTrail(cfg, tr, policy, trail, func(got *Result, copied int, events uint64) {
		n = copied
		if (events > 0) != (copied > 0) || events > got.Events {
			t.Errorf("%d+%d replay following the trail: %d outcomes and %d of its %d events copied", cfg.MapSlots, cfg.ReduceSlots, copied, events, got.Events)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d+%d replay following the trail: totals %d/%v/%d+%d, its own replay %d/%v/%d+%d",
				cfg.MapSlots, cfg.ReduceSlots, got.Events, got.Makespan, got.PeakMapSlots, got.PeakReduceSlots,
				want.Events, want.Makespan, want.PeakMapSlots, want.PeakReduceSlots)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return uint64(n)
}

// TestTrailFollowerMatchesReplay records a trail on a roomy cluster under
// each indexed built-in, follows it at slot counts below, at and above
// the recording replay's peaks, and demands DeepEqual Results of both
// sides: the recording replay against a plain Run, each follower against
// a fresh Pool.Run. A trail of one stretch is the whole replay, so there
// following copies everything exactly where Answers answers, and nothing
// elsewhere. What may not follow copies nothing, and leaves no trail.
func TestTrailFollowerMatchesReplay(t *testing.T) {
	ran := Config{MapSlots: 256, ReduceSlots: 128, MinMapPercentCompleted: 0.05}
	var pool Pool
	var partial int
	for i, tr := range trailTraces(t) {
		for _, pc := range peakPolicies()[:4] {
			t.Run(fmt.Sprintf("%d-%s/%s", i, tr.Name, pc.name), func(t *testing.T) {
				lead, trail, err := pool.RunTrail(ran, tr, pc.mk())
				if err != nil {
					t.Fatal(err)
				}
				if trail == nil {
					t.Fatal("an unobserved replay under an indexed policy left no trail")
				}
				plain, err := Run(ran, tr, pc.mk())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lead, plain) {
					t.Fatal("the replay that left the trail differs from a plain Run")
				}
				var copied uint64
				for _, m := range around(lead.PeakMapSlots, ran.MapSlots) {
					for _, r := range around(lead.PeakReduceSlots, ran.ReduceSlots) {
						cfg := ran
						cfg.MapSlots, cfg.ReduceSlots = m, r
						want, err := pool.Run(cfg, tr, pc.mk())
						if err != nil {
							t.Fatal(err)
						}
						n := followed(t, &pool, cfg, tr, pc.mk(), trail, want)
						copied += n
						if n > 0 && n < uint64(len(tr.Jobs)) {
							partial++
						}
						if all := n == uint64(len(tr.Jobs)); len(trail.marks) == 1 && all != Answers(lead, ran, cfg, pc.mk()) {
							t.Errorf("%d+%d: a one-stretch trail copied %d of %d jobs where Answers says %v", m, r, n, len(tr.Jobs), !all)
						}
					}
				}
				t.Logf("%d stretches, peaks %d+%d, %d jobs copied", len(trail.marks), lead.PeakMapSlots, lead.PeakReduceSlots, copied)
				if tr.Name == "sparse" && copied == 0 {
					t.Error("no cell copied a stretch of a sparse trace")
				}
			})
		}
	}
	// The test is only as good as the cells that both copied and replayed.
	if partial == 0 {
		t.Error("no cell copied part of a trail and replayed the rest")
	}

	t.Run("refused", func(t *testing.T) {
		tr := sparseStream(t, 300, 1)
		_, trail, err := pool.RunTrail(ran, tr, sched.FIFO{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := ran
		cfg.MapSlots, cfg.ReduceSlots = 16, 16
		preempt, slowstart, observed := cfg, cfg, cfg
		preempt.PreemptMapTasks = true
		slowstart.MinMapPercentCompleted = 1
		observed.Sink = &obs.RecordSink{}
		fifo := func() sched.Policy { return sched.FIFO{} }
		minEDF := func() sched.Policy { return sched.MinEDF{} }
		dynamic := peakPolicies()[5].mk
		other := &trace.Trace{Name: tr.Name, Jobs: tr.Jobs}
		for _, c := range []struct {
			name   string
			cfg    Config
			tr     *trace.Trace
			mk     func() sched.Policy
			copies bool
		}{
			{"FIFO", cfg, tr, fifo, true},
			{"MinEDF", cfg, tr, minEDF, false},
			{"PreemptMapTasks", preempt, tr, fifo, false},
			{"a sink", observed, tr, fifo, false},
			{"scan-path DynamicPriority", cfg, tr, dynamic, false},
			{"another slowstart", slowstart, tr, fifo, false},
			{"another *Trace", cfg, other, fifo, false},
		} {
			want, err := Run(c.cfg, c.tr, c.mk())
			if err != nil {
				t.Fatal(err)
			}
			if n := followed(t, &pool, c.cfg, c.tr, c.mk(), trail, want); (n > 0) != c.copies {
				t.Errorf("%s: copied %d jobs", c.name, n)
			}
		}
		for _, c := range []struct {
			name string
			cfg  Config
			mk   func() sched.Policy
		}{
			{"MinEDF", ran, minEDF},
			{"PreemptMapTasks", preempt, fifo},
			{"a sink", observed, fifo},
			{"scan-path DynamicPriority", ran, dynamic},
		} {
			if _, trail, err := pool.RunTrail(c.cfg, tr, c.mk()); err != nil || trail != nil {
				t.Errorf("%s: RunTrail left a trail (err %v)", c.name, err)
			}
		}
	})
}
