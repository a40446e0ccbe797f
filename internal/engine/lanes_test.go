package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"simmr/internal/des"
	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// This file pins what the engine relies on from the event queue's lanes
// (DESIGN.md §9): start() may hand over arrivals in any trace order, a
// same-instant event can still be cancelled, a filler reduce whose map
// stage never completes still departs, and a fork pays for the events in
// flight, not for the arrivals still to come.

// shuffledTrace builds a trace that is not in arrival order, with sparse
// IDs and runs of exactly tied arrivals: the input start() has to sort,
// and the only kind no Normalized trace exercises.
func shuffledTrace(n int, rng *rand.Rand) *trace.Trace {
	tr := &trace.Trace{Name: "shuffled"}
	for i := 0; i < n; i++ {
		nm, nr := 1+rng.Intn(5), rng.Intn(3)
		tpl := uniformTemplate(nm, nr, 0, 2, 3, 4)
		for k := range tpl.MapDurations {
			tpl.MapDurations[k] = float64(5 + rng.Intn(40))
		}
		job := &trace.Job{
			ID:       i*5 + 2,
			Arrival:  float64(i / 3 * 4), // three jobs per instant
			Template: tpl,
		}
		if i%3 != 1 {
			job.Deadline = job.Arrival + 40 + float64(rng.Intn(200))
		}
		tr.Jobs = append(tr.Jobs, job)
	}
	rng.Shuffle(n, func(i, j int) { tr.Jobs[i], tr.Jobs[j] = tr.Jobs[j], tr.Jobs[i] })
	return tr
}

// TestUnsortedTraceReplaysLikeSortedCopy is the metamorphic check on
// start()'s schedule: a trace out of arrival order replays exactly like
// its stably sorted copy — same obs stream, same counters, and the same
// outcome for every job.
func TestUnsortedTraceReplaysLikeSortedCopy(t *testing.T) {
	tr := shuffledTrace(90, rand.New(rand.NewSource(31)))
	sorted := &trace.Trace{Name: tr.Name, Jobs: append([]*trace.Job(nil), tr.Jobs...)}
	sort.SliceStable(sorted.Jobs, func(i, j int) bool { return sorted.Jobs[i].Arrival < sorted.Jobs[j].Arrival })
	if reflect.DeepEqual(tr.Jobs, sorted.Jobs) {
		t.Fatal("test trace is already in arrival order")
	}

	small := Config{MapSlots: 6, ReduceSlots: 3, MinMapPercentCompleted: 0.05}
	preempt := small
	preempt.PreemptMapTasks = true
	for _, c := range []struct {
		name string
		cfg  Config
		p    sched.Policy
	}{
		{"FIFO", small, sched.FIFO{}},
		{"MinEDF", small, sched.MinEDF{}},
		{"MaxEDF-preempt", preempt, sched.MaxEDF{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, gotSink := replayRecorded(t, c.cfg, tr, c.p)
			want, wantSink := replayRecorded(t, c.cfg, sorted, c.p)
			if c.cfg.PreemptMapTasks && kindTotal(wantSink.Events, obs.KindPreempt) == 0 {
				t.Fatal("preemption never fired: the cell checks nothing")
			}
			if !reflect.DeepEqual(gotSink, wantSink) {
				for i := range wantSink.Events {
					if gotSink.Events[i] != wantSink.Events[i] {
						t.Fatalf("obs event %d: unsorted %+v, sorted %+v", i, gotSink.Events[i], wantSink.Events[i])
					}
				}
				t.Fatalf("run counters: unsorted %+v, sorted %+v", gotSink.Counters, wantSink.Counters)
			}
			// Results list jobs in trace order, which is what differs.
			byID := make(map[int]JobOutcome, len(want.Jobs))
			for _, o := range want.Jobs {
				byID[o.ID] = o
			}
			for i, o := range got.Jobs {
				if o.ID != tr.Jobs[i].ID {
					t.Fatalf("outcome %d is job %d, want trace order (job %d)", i, o.ID, tr.Jobs[i].ID)
				}
				if !reflect.DeepEqual(o, byID[o.ID]) {
					t.Fatalf("job %d: unsorted %+v, sorted %+v", o.ID, o, byID[o.ID])
				}
			}
			if got.Events != want.Events || got.Makespan != want.Makespan {
				t.Fatalf("events/makespan %d/%v, want %d/%v", got.Events, got.Makespan, want.Events, want.Makespan)
			}
		})
	}
}

// TestZeroDurationMapPreemptedAtItsOwnInstant pins the order at a pause
// instant, given that a grant starts its task: a preemptive policy, two
// jobs arriving together, and zero-length maps. Both arrivals are handled
// before the instant's allocation round, which starts two of lazy's
// zero-length maps (lazy's deadline is the earlier); at the pause their
// departures head the same-instant lane and no arrival is left at that
// instant to kill them. They finish, lazy's other two run, and only then
// does the 7-s job get the slots. No arrival can be handled between a
// zero-length map's start and its departure, so no kill reaches the
// same-instant lane (DESIGN.md §9); that cancel is covered where it
// lives, TestRemoveFromSameInstantLane and the fuzz target in internal/des.
func TestZeroDurationMapPreemptedAtItsOwnInstant(t *testing.T) {
	tr := &trace.Trace{Jobs: []*trace.Job{
		{Name: "lazy", Arrival: 0, Deadline: 40, Template: uniformTemplate(4, 0, 0, 0, 0, 0)},
		{Name: "urgent", Arrival: 0, Deadline: 50, Template: uniformTemplate(2, 0, 7, 0, 0, 0)},
	}}
	tr.Normalize()
	sink := &obs.RecordSink{}
	cfg := Config{MapSlots: 2, ReduceSlots: 1, MinMapPercentCompleted: 0.05, PreemptMapTasks: true, Sink: sink}
	e, err := New(cfg, tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	// One macro-step: both arrivals fire, both slots go to lazy and both
	// its maps start, due at t=0.
	if _, err := e.RunEvents(1); err != nil {
		t.Fatal(err)
	}
	started := 0
	for _, ev := range sink.Events {
		if ev.Kind == obs.KindMapTaskStart && ev.JobID == 0 && ev.Time == 0 && ev.End == 0 {
			started++
		}
	}
	if started != 2 || e.EventsFired() != 4 {
		t.Fatalf("at the pause: %d maps started, %d events fired; want 2 started and 4 fired", started, e.EventsFired())
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	finished, finishedBeforeUrgent, urgentStarted := 0, 0, false
	for _, ev := range sink.Events {
		switch {
		case ev.Kind == obs.KindMapTaskStart && ev.JobID == 1:
			urgentStarted = true
		case ev.Kind == obs.KindMapTaskFinish && ev.JobID == 0:
			finished++
			if !urgentStarted {
				finishedBeforeUrgent++
			}
		}
	}
	lazy, urgent := res.Jobs[0], res.Jobs[1]
	// The urgent job takes both slots for 7 s once lazy's instant maps
	// are done.
	preempts := kindTotal(sink.Events, obs.KindPreempt)
	if finishedBeforeUrgent != 4 || preempts != 0 || finished != 4 || lazy.Finish != 0 || urgent.Finish != 7 {
		t.Fatalf("lazy: %d maps finished before the urgent job started, %d preempted, %d maps run, finish %v; urgent finish %v; "+
			"want all 4 before, none preempted, lazy finishing at 0 and urgent at 7",
			finishedBeforeUrgent, preempts, finished, lazy.Finish, urgent.Finish)
	}
}

// stallAfter is FIFO until its grants run out (a negative budget never
// does); then the replay deadlocks. Not a built-in value, so the engine
// drives it through the paper's two calls.
type stallAfter struct {
	sched.Policy
	maps, reduces int
}

func (p *stallAfter) ChooseNextMapTask(q []*sched.JobInfo) int {
	return grant(&p.maps, p.Policy.ChooseNextMapTask(q))
}

func (p *stallAfter) ChooseNextReduceTask(q []*sched.JobInfo) int {
	return grant(&p.reduces, p.Policy.ChooseNextReduceTask(q))
}

// grant passes the nomination i while the budget lasts.
func grant(budget *int, i int) int {
	if *budget == 0 {
		return -1
	}
	if i >= 0 {
		*budget--
	}
	return i
}

// TestStalledFillersDepartAtInfinity stops the policy granting map slots
// while first-wave reduces hold reduce slots: their map stages never
// complete, so nothing ever gives those fillers a time. They depart at
// Infinity in the order they started — and when the policy keeps
// granting the reduce slots that frees, so do the fillers started at
// Infinity — and only then is the replay the deadlock it is, with every
// reduce the engine started also finished. The stream lengths are the
// ones the pointer queue, which parked fillers in its heap at Infinity,
// produced for the same replays.
func TestStalledFillersDepartAtInfinity(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 4; i++ {
		tr.Jobs = append(tr.Jobs, &trace.Job{Arrival: float64(3 * i), Template: uniformTemplate(6, 5, 10, 2, 3, 4)})
	}
	tr.Normalize()
	for _, c := range []struct {
		name    string
		reduces int // reduce-slot grants; job 0 takes five
		stalled int // fillers left without a time
		events  int
	}{
		{"maps", -1, 4, 86},
		{"maps-and-reduces", 5 + 3, 3, 78},
	} {
		t.Run(c.name, func(t *testing.T) {
			sink := &obs.RecordSink{}
			cfg := Config{MapSlots: 3, ReduceSlots: 4, MinMapPercentCompleted: 0.05, Sink: sink}
			// Nine map grants: job 0's six maps, and three of job 1's.
			_, err := Run(cfg, tr, &stallAfter{Policy: sched.FIFO{}, maps: 9, reduces: c.reduces})
			if err == nil || !strings.Contains(err.Error(), "deadlock") {
				t.Fatalf("Run error = %v, want the deadlock", err)
			}
			type task struct{ job, task int }
			kinds := map[obs.Kind]int{}
			timed := map[task]bool{}
			for _, ev := range sink.Events {
				kinds[ev.Kind]++
				if ev.Kind == obs.KindFillerPatch {
					timed[task{ev.JobID, ev.Task}] = true
				}
			}
			// Fillers started before the stall and never given a time, and
			// the first as many departures at Infinity.
			var started, finished []task
			for _, ev := range sink.Events {
				k := task{ev.JobID, ev.Task}
				switch {
				case ev.Kind == obs.KindReduceTaskStart && ev.Time < des.Infinity && ev.End > des.Infinity && !timed[k]:
					started = append(started, k)
				case ev.Kind == obs.KindReduceTaskFinish && ev.Time == des.Infinity && len(finished) < len(started):
					finished = append(finished, k)
				}
			}
			if kinds[obs.KindMapTaskStart] != 9 || kinds[obs.KindMapTaskFinish] != 9 {
				t.Fatalf("%d/%d maps started/finished, want the 9 granted", kinds[obs.KindMapTaskStart], kinds[obs.KindMapTaskFinish])
			}
			if kinds[obs.KindReduceTaskStart] != kinds[obs.KindReduceTaskFinish] {
				t.Fatalf("%d reduces started, %d finished", kinds[obs.KindReduceTaskStart], kinds[obs.KindReduceTaskFinish])
			}
			if len(started) != c.stalled || !reflect.DeepEqual(started, finished) {
				t.Fatalf("fillers left without a time %v (want %d), first departures at Infinity %v", started, c.stalled, finished)
			}
			if len(sink.Events) != c.events {
				t.Fatalf("stream has %d events, the parked-filler queue produced %d", len(sink.Events), c.events)
			}
		})
	}
}

// TestForkCostBoundedBySlots forks a long sparse trace at event 0 and
// at its midpoint: beyond the outcomes of the jobs already arrived (the
// prefix a Result carries anyway), what ForkInto copies, and what it
// allocates into a warmed engine, is bounded by the cluster's slots —
// the jobs still to come have no state, and their arrivals stay in the
// snapshot's schedule.
func TestForkCostBoundedBySlots(t *testing.T) {
	const n = 20_000
	tpl := uniformTemplate(4, 1, 20, 2, 3, 5)
	tr := &trace.Trace{Name: "sparse"}
	for i := 0; i < n; i++ {
		tr.Jobs = append(tr.Jobs, &trace.Job{ID: i, Arrival: float64(i) * 60, Template: tpl})
	}
	cfg := Config{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05}
	total, err := Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	slots := uint64(cfg.MapSlots + cfg.ReduceSlots)
	// Per slot: one event in flight and at worst one live job holding it.
	bound := (slots + 1) * (eventBytes + jobBytes)
	if unarrived := n / 2 * eventBytes; bound >= unarrived {
		t.Fatalf("bound %d B does not separate slots from %d B of un-arrived jobs", bound, unarrived)
	}
	dst := &Engine{}
	for _, at := range []uint64{0, total.Events / 2} {
		prefix, _ := pauseAt(t, cfg, tr, sched.FIFO{}, at)
		snap, err := prefix.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fork := func() {
			if err := snap.ForkInto(dst, ForkOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		fork()
		if got, prefix := dst.ForkStats().BytesCopied, uint64(dst.outHi)*outcomeBytes; got-prefix > bound {
			t.Errorf("fork at event %d copied %d B beyond %d outcomes, want ≤ %d B (slots, not jobs)", at, got-prefix, dst.outHi, bound)
		}
		if dst.outHi > n/2+1 {
			t.Errorf("fork at event %d copied %d outcomes of a replay at most half-way", at, dst.outHi)
		}
		if raceDetectorEnabled {
			continue // the detector's own allocations make the count meaningless
		}
		if allocs := testing.AllocsPerRun(5, fork); allocs > float64(4*slots) {
			t.Errorf("fork at event %d into a warmed engine allocated %.0f times, want ≤ %d", at, allocs, 4*slots)
		}
	}
	res, err := dst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, total) {
		t.Fatal("fork at the midpoint diverged from the scratch replay")
	}
}
