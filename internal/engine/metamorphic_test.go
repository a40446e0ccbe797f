package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/sched/schedtest"
	"simmr/internal/trace"
)

// Metamorphic relations from the paper's model (ROADMAP item 4c): each
// states what a replay must do to a transformed input, so the scheduling
// index is checked against the model itself rather than against another
// path of the engine.

// TestOneJobSameUnderEveryPolicy: a job alone on the cluster is every
// policy's first choice for every slot it can use, so it gets the same
// outcome under all seven policy configurations, on the scheduling index
// and on the paper's scan. MinEDF caps a job to the fewest slots that
// meet its deadline, so the relation holds for a job MinEDF leaves
// uncapped: one with no deadline, or with one no allocation can meet.
func TestOneJobSameUnderEveryPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		tr := randomTrace(rng, 1)
		j := tr.Jobs[0]
		j.Arrival = rng.Float64() * 100
		if trial%2 == 1 {
			j.Deadline = j.Arrival + 0.1 // every task runs ≥ 0.5 s: unattainable
		} else {
			j.Deadline = 0
		}
		cfg := DefaultConfig()
		cfg.MapSlots, cfg.ReduceSlots = 1+rng.Intn(48), 1+rng.Intn(16)
		var want *JobOutcome
		for _, pc := range diffPolicies() {
			for _, p := range []sched.Policy{pc.mk(), schedtest.ScanOnly(pc.mk())} {
				res, err := Run(cfg, tr, p)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, pc.name, err)
				}
				got := res.Jobs[0]
				if want == nil {
					want = &got
				} else if got != *want {
					t.Fatalf("trial %d (%d maps, %d reduces, %d×%d slots, deadline %v): %s on %T gives\n %+v\nwhere %s gives\n %+v",
						trial, j.Template.NumMaps, j.Template.NumReduces, cfg.MapSlots, cfg.ReduceSlots, j.Deadline,
						pc.name, p, got, diffPolicies()[0].name, *want)
				}
			}
		}
	}
}

// scaleTrace returns a copy of tr with every time — arrivals, deadlines
// and task durations — multiplied by 2^k. A power of two scales a float
// exactly, and so does every sum, difference, ratio of two scaled values
// and square root of a product of two: the replay of the copy must be
// the original's with every timestamp scaled exactly.
func scaleTrace(tr *trace.Trace, k int) *trace.Trace {
	out := &trace.Trace{Name: tr.Name}
	tpls := map[*trace.Template]*trace.Template{}
	for _, j := range tr.Jobs {
		tpl, ok := tpls[j.Template]
		if !ok {
			tpl = j.Template.Clone()
			for _, ds := range [][]float64{tpl.MapDurations, tpl.FirstShuffle, tpl.TypicalShuffle, tpl.ReduceDurations} {
				for i := range ds {
					ds[i] = math.Ldexp(ds[i], k)
				}
			}
			tpls[j.Template] = tpl
		}
		cp := *j
		cp.Arrival, cp.Deadline, cp.Template = math.Ldexp(j.Arrival, k), math.Ldexp(j.Deadline, k), tpl
		out.Jobs = append(out.Jobs, &cp)
	}
	return out
}

// TestTimeScalingScalesEveryTimestamp: scaling every input time by 2^k
// changes no scheduling decision. Under FIFO, MaxEDF and MinEDF, on a
// sparse trace and on a dense burst, the scaled replay's outcomes and
// obs stream are the original's with every timestamp multiplied by
// exactly 2^k, and the same kind/job/task sequence.
func TestTimeScalingScalesEveryTimestamp(t *testing.T) {
	sparse := randomTrace(rand.New(rand.NewSource(21)), 80) // 41 jobs
	burst := randomTrace(rand.New(rand.NewSource(26)), 300) // 282 jobs
	rng := rand.New(rand.NewSource(22))
	for _, j := range burst.Jobs {
		j.Arrival = rng.Float64() * 5
	}
	burst.Normalize()
	for _, c := range []struct {
		name string
		tr   *trace.Trace
	}{{"sparse", sparse}, {"burst", burst}} {
		for _, pc := range []struct {
			name string
			p    sched.Policy
		}{{"FIFO", sched.FIFO{}}, {"MaxEDF", sched.MaxEDF{}}, {"MinEDF", sched.MinEDF{}}} {
			for _, k := range []int{-3, 5} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", c.name, pc.name, k), func(t *testing.T) {
					res, sink := replayRecorded(t, DefaultConfig(), c.tr, pc.p)
					sres, ssink := replayRecorded(t, DefaultConfig(), scaleTrace(c.tr, k), pc.p)
					assertScaledReplay(t, k, res, sink, sres, ssink)
				})
			}
		}
	}
}

// assertScaledReplay checks that the replay (sres, ssink) is (res, sink)
// with every timestamp multiplied by 2^k and everything else unchanged.
func assertScaledReplay(t *testing.T, k int, res *Result, sink *obs.RecordSink, sres *Result, ssink *obs.RecordSink) {
	t.Helper()
	scaled := func(x, y float64) bool { return math.Ldexp(x, k) == y }
	if res.Events != sres.Events || !scaled(res.Makespan, sres.Makespan) ||
		res.PeakMapSlots != sres.PeakMapSlots || res.PeakReduceSlots != sres.PeakReduceSlots {
		t.Fatalf("result: events %d → %d, makespan %v → %v, peaks (%d,%d) → (%d,%d)",
			res.Events, sres.Events, res.Makespan, sres.Makespan,
			res.PeakMapSlots, res.PeakReduceSlots, sres.PeakMapSlots, sres.PeakReduceSlots)
	}
	for i, o := range res.Jobs {
		s := sres.Jobs[i]
		if o.ID != s.ID || o.Name != s.Name || o.Events != s.Events ||
			!scaled(o.Arrival, s.Arrival) || !scaled(o.Finish, s.Finish) ||
			!scaled(o.Deadline, s.Deadline) || !scaled(o.MapStageEnd, s.MapStageEnd) {
			t.Fatalf("job %d: outcome\n %+v\nscaled by 2^%d is\n %+v", o.ID, o, k, s)
		}
	}
	if len(sink.Events) != len(ssink.Events) {
		t.Fatalf("obs stream length %d → %d", len(sink.Events), len(ssink.Events))
	}
	for i, ev := range sink.Events {
		s := ssink.Events[i]
		if ev.Kind != s.Kind || ev.JobID != s.JobID || ev.Task != s.Task ||
			!scaled(ev.Time, s.Time) || !scaled(ev.End, s.End) || !scaled(ev.ShuffleEnd, s.ShuffleEnd) {
			t.Fatalf("obs event %d:\n %+v\nscaled by 2^%d is\n %+v", i, ev, k, s)
		}
	}
	want := sink.Counters
	want.Makespan = math.Ldexp(want.Makespan, k)
	if ssink.Counters != want {
		t.Fatalf("run counters\n %+v\nscaled by 2^%d are\n %+v", sink.Counters, k, ssink.Counters)
	}
}

// relabel returns a copy of tr whose job IDs are sparse and shuffled —
// a random permutation of 7·i + 3 — in the same positions, so the
// engine resolves them through its ID map; ids[p] is position p's ID.
func relabel(tr *trace.Trace, rng *rand.Rand) (*trace.Trace, []int) {
	out := &trace.Trace{Name: tr.Name}
	ids := rng.Perm(len(tr.Jobs))
	for p, j := range tr.Jobs {
		ids[p] = 7*ids[p] + 3
		cp := *j
		cp.ID = ids[p]
		out.Jobs = append(out.Jobs, &cp)
	}
	return out, ids
}

// TestRelabellingKeepsOutcomes: job IDs only name jobs. Relabelled
// sparse and shuffled, a trace replays under FIFO, MaxEDF and MinEDF
// with every job's outcome the dense-ID replay's, position by position,
// and so does a fork of each, at a random event, with the same job's
// deadline moved — the fork resolving the ID through the map it
// borrows from its snapshot.
func TestRelabellingKeepsOutcomes(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	edits := 0
	for trial := 0; trial < 6; trial++ {
		dense := randomTrace(rng, 60)
		if trial%2 == 1 { // a burst: many jobs queued at once
			for _, j := range dense.Jobs {
				j.Arrival = rng.Float64() * 5
			}
			dense.Normalize()
		}
		sparse, ids := relabel(dense, rng)
		for _, p := range []sched.Policy{sched.FIFO{}, sched.MaxEDF{}, sched.MinEDF{}} {
			t.Run(fmt.Sprintf("trial=%d/%s", trial, p.Name()), func(t *testing.T) {
				want, err := Run(DefaultConfig(), dense, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(DefaultConfig(), sparse, p)
				if err != nil {
					t.Fatal(err)
				}
				assertRelabelled(t, "replay", want, got, ids)

				// The same edit on both forks: the first job still to
				// arrive at the branch point gets a deadline 50 s after it.
				at := uint64(rng.Int63n(int64(want.Events)))
				fork := func(tr *trace.Trace) *Result {
					src, _ := pauseAt(t, DefaultConfig(), tr, p, at)
					if tr == sparse && src.indexOf == nil {
						t.Fatal("relabelled IDs dispatch without the ID map")
					}
					snap, err := src.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					f, err := snap.Fork(ForkOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if id, arr := firstUnarrivedID(f); id >= 0 {
						if err := f.SetDeadline(id, arr+50); err != nil {
							t.Fatal(err)
						}
						edits++
					}
					res, err := f.Run()
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				assertRelabelled(t, fmt.Sprintf("fork at event %d", at), fork(dense), fork(sparse), ids)
			})
		}
	}
	if edits == 0 {
		t.Error("no fork had a job left to arrive: the edit went untested")
	}
}

// assertRelabelled checks that got, a replay of the relabelled trace,
// is want, the dense replay, with position p's ID replaced by ids[p].
func assertRelabelled(t *testing.T, what string, want, got *Result, ids []int) {
	t.Helper()
	if got.Events != want.Events || got.Makespan != want.Makespan {
		t.Fatalf("%s: events %d, makespan %v; dense IDs give %d, %v", what, got.Events, got.Makespan, want.Events, want.Makespan)
	}
	for p, o := range want.Jobs {
		o.ID = ids[p]
		if got.Jobs[p] != o {
			t.Fatalf("%s: position %d:\n %+v\nwith dense IDs:\n %+v", what, p, got.Jobs[p], want.Jobs[p])
		}
	}
}
