package engine

import (
	"math/rand"
	"slices"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// An urgent job arriving mid-execution of a relaxed job gets slots
// immediately when preemption is on, and only after the running wave
// when it is off.
func TestPreemptionAdmitsUrgentJobImmediately(t *testing.T) {
	mk := func(preempt bool) (urgentCompletion float64) {
		tr := &trace.Trace{Jobs: []*trace.Job{
			{Name: "lazy", Arrival: 0, Deadline: 10000, Template: uniformTemplate(64, 0, 100, 0, 0, 0)},
			{Name: "urgent", Arrival: 10, Deadline: 200, Template: uniformTemplate(4, 0, 10, 0, 0, 0)},
		}}
		tr.Normalize()
		cfg := Config{MapSlots: 4, ReduceSlots: 1, MinMapPercentCompleted: 0.05, PreemptMapTasks: preempt}
		res, err := Run(cfg, tr, sched.MaxEDF{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Jobs[1].CompletionTime()
	}
	withPreempt := mk(true)
	without := mk(false)
	// Without preemption the urgent job waits for a 100 s map wave
	// (~90 s remaining); with preemption it starts at once (~10 s).
	if withPreempt >= without {
		t.Fatalf("preemption did not help: %v vs %v", withPreempt, without)
	}
	if withPreempt > 15 {
		t.Fatalf("urgent job should run immediately under preemption: %v", withPreempt)
	}
}

// Killed tasks must re-execute: the victim still completes all its work.
func TestPreemptedJobStillCompletesAllTasks(t *testing.T) {
	tr := &trace.Trace{Jobs: []*trace.Job{
		{Name: "victim", Arrival: 0, Deadline: 100000, Template: uniformTemplate(12, 2, 50, 2, 3, 1)},
		{Name: "urgent", Arrival: 5, Deadline: 300, Template: uniformTemplate(4, 0, 10, 0, 0, 0)},
	}}
	tr.Normalize()
	cfg := Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}
	res, maps, _ := taskSpans(t, cfg, tr, sched.MaxEDF{})
	victim := res.Jobs[0]
	if victim.Finish <= 0 {
		t.Fatal("victim never finished")
	}
	// Each of the 12 maps ran to completion exactly once, for its whole
	// recorded duration, after every killed attempt at it.
	completed, killed := map[int]float64{}, 0
	for _, s := range maps[0] {
		switch start, done := completed[s.Task]; {
		case done:
			t.Fatalf("victim map %d attempted at %v after completing the attempt of %v", s.Task, s.Start, start)
		case s.Preempted:
			killed++
		case s.End-s.Start != 50:
			t.Fatalf("victim map %d completed in %v, recorded 50: %+v", s.Task, s.End-s.Start, s)
		default:
			completed[s.Task] = s.Start
		}
	}
	if len(completed) != 12 || killed == 0 {
		t.Fatalf("victim completed %d of 12 maps with %d killed attempts, want all 12 and a kill", len(completed), killed)
	}
	// Preemption must cost the victim time: 12 maps x 50 s on 4 slots is
	// 150 s unpreempted; the kill adds at least part of a wave.
	if victim.Finish < 150 {
		t.Fatalf("victim finished impossibly fast: %v", victim.Finish)
	}
}

// Among running maps due at the same time the kill takes the most
// recently scheduled — not whichever one Go's map iteration offers first.
// Four of lazy's maps, all due at t=100, hold the four slots when urgent
// arrives wanting two; the four that follow have different durations, so
// which tasks were killed (and re-run last) also moves lazy's finish.
func TestPreemptVictimTieIsDeterministic(t *testing.T) {
	lazy := uniformTemplate(8, 0, 100, 0, 0, 0)
	copy(lazy.MapDurations[4:], []float64{10, 20, 30, 40})
	tr := &trace.Trace{Jobs: []*trace.Job{
		{Name: "lazy", Arrival: 0, Deadline: 10000, Template: lazy},
		{Name: "urgent", Arrival: 5, Deadline: 200, Template: uniformTemplate(2, 0, 10, 0, 0, 0)},
	}}
	tr.Normalize()
	cfg := Config{MapSlots: 4, ReduceSlots: 1, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}
	var first []int
	for run := 0; run < 50; run++ {
		_, sink := replayRecorded(t, cfg, tr, sched.MaxEDF{})
		var kills []int
		for _, ev := range sink.Events {
			if ev.Kind == obs.KindPreempt {
				kills = append(kills, ev.Task)
			}
		}
		if run == 0 {
			first = kills
			if len(kills) < 2 || kills[0] != 3 || kills[1] != 2 {
				t.Fatalf("kills = %v, want lazy's latest-scheduled maps 3 then 2 first", kills)
			}
		} else if !slices.Equal(kills, first) {
			t.Fatalf("run %d killed tasks %v, run 0 killed %v", run, kills, first)
		}
	}
}

// Preemption only ever helps jobs with deadlines; a no-deadline arrival
// must not trigger kills.
func TestNoPreemptionForDeadlinelessArrivals(t *testing.T) {
	tr := &trace.Trace{Jobs: []*trace.Job{
		{Name: "a", Arrival: 0, Deadline: 500, Template: uniformTemplate(8, 0, 50, 0, 0, 0)},
		{Name: "b", Arrival: 5, Template: uniformTemplate(4, 0, 10, 0, 0, 0)},
	}}
	tr.Normalize()
	cfg := Config{MapSlots: 4, ReduceSlots: 1, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}
	res, err := Run(cfg, tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	// Job a runs 2 waves of 50 s with no interruption.
	if res.Jobs[0].Finish != 100 {
		t.Fatalf("deadline job was disturbed: finish %v, want 100", res.Jobs[0].Finish)
	}
}

// MinEDF with preemption respects the wanted-slot cap when seizing slots.
func TestPreemptionHonorsMinEDFCaps(t *testing.T) {
	tr := &trace.Trace{Jobs: []*trace.Job{
		// Tight enough that MinEDF wants all 8 slots for the big job
		// (64 x 50 s / 8 slots = 400 s work, deadline 430).
		{Name: "big", Arrival: 0, Deadline: 430, Template: uniformTemplate(64, 0, 50, 0, 0, 0)},
		// Relaxed enough that MinEDF wants a single slot (320 s of work,
		// 400 s of slack).
		{Name: "small", Arrival: 5, Deadline: 5 + 400, Template: uniformTemplate(8, 0, 40, 0, 0, 0)},
	}}
	tr.Normalize()
	cfg := Config{MapSlots: 8, ReduceSlots: 1, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}
	res, maps, _ := taskSpans(t, cfg, tr, sched.MinEDF{})
	if res.Jobs[1].ExceededDeadline() {
		t.Fatalf("small job missed its deadline: %v > %v", res.Jobs[1].Finish, res.Jobs[1].Deadline)
	}
	// The big job should have kept most of its slots: count its peak map
	// concurrency after t=5.
	peak := 0
	for _, s := range maps[0] {
		if s.Start >= 5 {
			n := 0
			mid := (s.Start + s.End) / 2
			for _, o := range maps[0] {
				if o.Start <= mid && mid < o.End {
					n++
				}
			}
			if n > peak {
				peak = n
			}
		}
	}
	// The small job wanted one slot, so the big job must keep at least
	// 8 - 1 - 1 = 6 running after the arrival (one more may be lost to
	// wave-boundary timing).
	if peak < 6 {
		t.Fatalf("preemption seized more slots than MinEDF wanted: big job peak %d", peak)
	}
}

// Invariants hold under preemption across random traces.
func TestPreemptionInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		tr := randomTrace(rng, 6)
		cfg := Config{
			MapSlots:               rng.Intn(20) + 1,
			ReduceSlots:            rng.Intn(20) + 1,
			MinMapPercentCompleted: 0.05,
			PreemptMapTasks:        true,
		}
		res, maps, _ := taskSpans(t, cfg, tr, sched.MaxEDF{})
		for i, out := range res.Jobs {
			if out.Finish < out.Arrival {
				t.Fatalf("trial %d job %d: finish before arrival", trial, i)
			}
		}
		// Killed attempts count: they held their slot up to the kill.
		if peak := peakConcurrency(allSpans(maps)); peak > cfg.MapSlots {
			t.Fatalf("trial %d: map peak %d > %d slots", trial, peak, cfg.MapSlots)
		}
	}
}
