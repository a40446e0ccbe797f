package engine

import (
	"reflect"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/sched/schedtest"
	"simmr/internal/trace"
)

// This file pins the shape of a macro-step (DESIGN.md §5): events →
// allocation round → task starts. A slot grant starts its task in the
// round that makes it, so no pause — and no snapshot — ever sees a grant
// without its start, and a task's arrival still counts as one event.

// allocRound is one allocation round as the stream shows it: a run of
// slot allocations, then as many task starts.
type allocRound struct {
	time          float64
	maps, reduces int
}

// allocRounds splits a stream into its allocation rounds and fails when
// a round's starts are not its grants, job for job and in grant order.
func allocRounds(t *testing.T, evs []obs.Event) []allocRound {
	t.Helper()
	var rounds []allocRound
	for i := 0; i < len(evs); {
		if k := evs[i].Kind; k != obs.KindMapSlotAlloc && k != obs.KindReduceSlotAlloc {
			if k == obs.KindMapTaskStart || k == obs.KindReduceTaskStart {
				t.Fatalf("event %d: %v outside an allocation round", i, evs[i])
			}
			i++
			continue
		}
		r, first := allocRound{time: evs[i].Time}, i
		for ; i < len(evs) && evs[i].Kind == obs.KindMapSlotAlloc; i++ {
			r.maps++
		}
		for ; i < len(evs) && evs[i].Kind == obs.KindReduceSlotAlloc; i++ {
			r.reduces++
		}
		n := r.maps + r.reduces
		if i+n > len(evs) {
			t.Fatalf("round at event %d grants %d slots; only %d events follow", first, n, len(evs)-i)
		}
		for g := 0; g < n; g++ {
			want := obs.KindMapTaskStart
			if g >= r.maps {
				want = obs.KindReduceTaskStart
			}
			if s := evs[i+g]; s.Kind != want || s.JobID != evs[first+g].JobID || s.Time != r.time {
				t.Fatalf("round at event %d: grant %d is %v, followed by %v; want a %v of the same job and instant",
					first, g, evs[first+g], s, want)
			}
		}
		i += n
		rounds = append(rounds, r)
	}
	return rounds
}

// TestGrantStartsItsTaskInTheSameStep pauses a one-job replay after its
// first macro-step, on both scheduling paths: the job's arrival and one
// task start per slot granted have fired — 1 + grants events — and the
// sink already holds every start. Pausing on after each further event
// never shows a grant whose start is still to come.
func TestGrantStartsItsTaskInTheSameStep(t *testing.T) {
	tr := oneJobTrace(uniformTemplate(7, 3, 10, 2, 3, 4))
	for _, path := range []struct {
		name string
		p    sched.Policy
	}{
		{"indexed", sched.FIFO{}},
		{"scan", schedtest.ScanOnly(sched.FIFO{})},
	} {
		t.Run(path.name, func(t *testing.T) {
			cfg := Config{MapSlots: 3, ReduceSlots: 2, MinMapPercentCompleted: 0.05}
			e, sink := pauseAt(t, cfg, tr, path.p, 1)
			// allocRounds finds each grant's start in what the sink holds.
			rounds := allocRounds(t, sink.Events)
			if len(rounds) != 1 || rounds[0].maps != 3 || rounds[0].reduces != 0 {
				t.Fatalf("first step's rounds = %+v, want one granting the 3 map slots", rounds)
			}
			if got := e.EventsFired(); got != 1+3 {
				t.Fatalf("EventsFired() = %d after the first step, want 1 arrival + 3 task starts", got)
			}
			for done := false; !done; {
				var err error
				if done, err = e.RunEvents(e.EventsFired() + 1); err != nil {
					t.Fatal(err)
				}
				allocRounds(t, sink.Events) // fails on a grant with no start yet
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			// 7+3 task arrivals and departures, job arrival, map stage, departure.
			if res.Events != 23 || res.Jobs[0].Events != 23 {
				t.Fatalf("events = %d (job: %d), want 23", res.Events, res.Jobs[0].Events)
			}
		})
	}
}

// TestPauseSweepMatchesUnpausedRun pauses at every event count a replay
// can be asked for — RunEvents(k) for k from 0 to Result.Events — on the
// two stream cases with the most same-instant traffic, and checks that
// neither carrying on (Run) nor sealing and branching there (Snapshot,
// Fork, Run) changes anything: same outcomes, same counters, same stream.
func TestPauseSweepMatchesUnpausedRun(t *testing.T) {
	cases := map[string]func() sched.Policy{
		"fillers": func() sched.Policy { return sched.MinEDF{} },
		"preempt": func() sched.Policy { return sched.MaxEDF{} },
	}
	stride := uint64(1)
	if raceDetectorEnabled {
		stride = 7 // the detector's ~10× would make the quadratic sweep the slowest test
	}
	for _, sc := range streamCases(t) {
		mk := cases[sc.name]
		if mk == nil {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			want, wantSink := replayRecorded(t, sc.cfg, sc.tr, mk())
			same := func(k uint64, how string, got *Result, counters obs.Counters, stream ...[]obs.Event) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pause at %d, %s: result diverged from the unpaused run's", k, how)
				}
				if counters != wantSink.Counters {
					t.Fatalf("pause at %d, %s: counters %+v, unpaused %+v", k, how, counters, wantSink.Counters)
				}
				i := 0
				for _, part := range stream {
					for _, ev := range part {
						if i >= len(wantSink.Events) || ev != wantSink.Events[i] {
							t.Fatalf("pause at %d, %s: stream diverged at event %d: %+v", k, how, i, ev)
						}
						i++
					}
				}
				if i != len(wantSink.Events) {
					t.Fatalf("pause at %d, %s: %d stream events, unpaused %d", k, how, i, len(wantSink.Events))
				}
			}
			pauses := 0
			for k := uint64(0); k <= want.Events; k += stride {
				e, sink := pauseAt(t, sc.cfg, sc.tr, mk(), k)
				if fired := e.EventsFired(); fired < k {
					t.Fatalf("RunEvents(%d) paused at %d events", k, fired)
				} else if fired == k {
					pauses++
				}
				res, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				same(k, "Run", res, sink.Counters, sink.Events)

				prefix, prefixSink := pauseAt(t, sc.cfg, sc.tr, mk(), k)
				forkSink := &obs.RecordSink{}
				fork, err := prefix.Fork(ForkOptions{Sink: forkSink})
				if err != nil {
					t.Fatal(err)
				}
				if res, err = fork.Run(); err != nil {
					t.Fatal(err)
				}
				same(k, "Snapshot, Fork, Run", res, forkSink.Counters, prefixSink.Events, forkSink.Events)
			}
			// Every macro-step boundary is one of the pauses swept.
			if stride == 1 && (pauses < 100 || uint64(pauses) >= want.Events) {
				t.Fatalf("%d of %d event counts are pause points; the sweep checks nothing", pauses, want.Events)
			}
		})
	}
}

// TestScanAndIndexGrantAlikePerRound replays a trace of zero-duration
// tasks — whole waves start, finish and free their slots within one
// instant, so rounds follow each other without the clock moving — under
// every policy on both scheduling paths, and compares the rounds
// themselves: when each ran and how many map and reduce slots it
// granted. (The differential suite compares the streams; this names what
// must match when one does not.)
func TestScanAndIndexGrantAlikePerRound(t *testing.T) {
	tr := &trace.Trace{Name: "instant"}
	for i := 0; i < 9; i++ {
		mapD, redD := 0.0, 0.0
		if i%3 == 2 {
			mapD, redD = 4, 1 // every third job takes time, so slots stay contended
		}
		tr.Jobs = append(tr.Jobs, &trace.Job{
			Arrival:  float64(i / 3 * 2), // three jobs per instant
			Deadline: float64(i/3*2) + 30 - float64(i%3)*5,
			Template: uniformTemplate(5+i%4, 1+i%3, mapD, 0, 0, redD),
		})
	}
	tr.Normalize()
	cfg := Config{MapSlots: 3, ReduceSlots: 2, MinMapPercentCompleted: 0.05}
	for _, pc := range diffPolicies() {
		t.Run(pc.name, func(t *testing.T) {
			_, indexed := replayRecorded(t, cfg, tr, pc.mk())
			_, scan := replayRecorded(t, cfg, tr, schedtest.ScanOnly(pc.mk()))
			got, want := allocRounds(t, indexed.Events), allocRounds(t, scan.Events)
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("round %d: indexed %+v, scan %+v", i, got[i:min(i+1, len(got))], want[i])
					}
				}
				t.Fatalf("indexed ran %d rounds, scan %d", len(got), len(want))
			}
			sameInstant := 0
			for i := 1; i < len(got); i++ {
				if got[i].time == got[i-1].time {
					sameInstant++
				}
			}
			if sameInstant == 0 {
				t.Fatal("no two rounds share an instant: the trace does not exercise zero-duration waves")
			}
			if indexed.Counters != scan.Counters {
				t.Fatalf("counters: indexed %+v, scan %+v", indexed.Counters, scan.Counters)
			}
		})
	}
}
