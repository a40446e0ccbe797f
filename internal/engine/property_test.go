package engine

import (
	"math"
	"math/rand"
	"testing"

	"simmr/internal/sched"
	"simmr/internal/trace"
)

// randomTrace builds an arbitrary valid trace from a seeded source.
func randomTrace(rng *rand.Rand, maxJobs int) *trace.Trace {
	n := rng.Intn(maxJobs) + 1
	tr := &trace.Trace{Name: "prop"}
	t := 0.0
	for i := 0; i < n; i++ {
		maps := rng.Intn(40) + 1
		reduces := rng.Intn(16)
		tpl := &trace.Template{
			AppName: "p", NumMaps: maps, NumReduces: reduces,
			MapDurations: randDurs(rng, maps, 30),
		}
		if reduces > 0 {
			tpl.FirstShuffle = randDurs(rng, reduces, 8)
			tpl.TypicalShuffle = randDurs(rng, reduces, 10)
			tpl.ReduceDurations = randDurs(rng, reduces, 6)
		}
		var deadline float64
		if rng.Intn(2) == 0 {
			deadline = t + 50 + rng.Float64()*2000
		}
		tr.Jobs = append(tr.Jobs, &trace.Job{
			Arrival: t, Deadline: deadline, Template: tpl,
		})
		t += rng.Float64() * 100
	}
	tr.Normalize()
	return tr
}

func randDurs(rng *rand.Rand, n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.5 + rng.Float64()*scale
	}
	return out
}

// Invariants that must hold for every policy on every trace:
//   - every job completes, at or after its arrival;
//   - the map stage ends before the job finishes (with reduces) or
//     exactly at it (map-only);
//   - the event count matches the seven-event accounting exactly;
//   - recorded spans never exceed the slot capacity.
func TestEngineInvariantsAcrossPoliciesProperty(t *testing.T) {
	policies := []sched.Policy{
		sched.FIFO{}, sched.MaxEDF{}, sched.MinEDF{},
		sched.Fair{}, sched.Capacity{Shares: []float64{0.7, 0.3}},
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		tr := randomTrace(rng, 8)
		policy := policies[trial%len(policies)]
		cfg := Config{
			MapSlots:               rng.Intn(30) + 1,
			ReduceSlots:            rng.Intn(30) + 1,
			MinMapPercentCompleted: rng.Float64(),
		}
		res, maps, reduces := taskSpans(t, cfg, tr, policy)
		if len(res.Jobs) != len(tr.Jobs) {
			t.Fatalf("trial %d: %d outcomes for %d jobs", trial, len(res.Jobs), len(tr.Jobs))
		}

		var wantEvents uint64
		for i, out := range res.Jobs {
			tpl := tr.Jobs[i].Template
			if out.Finish < out.Arrival {
				t.Fatalf("trial %d job %d: finished before arrival", trial, i)
			}
			if math.IsInf(out.Finish, 0) || out.Finish == 0 && out.Arrival > 0 {
				t.Fatalf("trial %d job %d: bogus finish %v", trial, i, out.Finish)
			}
			if tpl.NumReduces == 0 {
				if out.Finish != out.MapStageEnd {
					t.Fatalf("trial %d job %d: map-only finish %v != map end %v",
						trial, i, out.Finish, out.MapStageEnd)
				}
			} else if out.MapStageEnd > out.Finish {
				t.Fatalf("trial %d job %d: map end after finish", trial, i)
			}
			// arrival + departure + 2 per map + 2 per reduce + map-stage.
			wantEvents += uint64(3 + 2*tpl.NumMaps + 2*tpl.NumReduces)
		}
		if res.Events != wantEvents {
			t.Fatalf("trial %d: events = %d, accounting says %d", trial, res.Events, wantEvents)
		}

		for i, j := range tr.Jobs {
			if len(maps[j.ID]) != j.Template.NumMaps || len(reduces[j.ID]) != j.Template.NumReduces {
				t.Fatalf("trial %d job %d: %d map and %d reduce spans for %d and %d tasks",
					trial, i, len(maps[j.ID]), len(reduces[j.ID]), j.Template.NumMaps, j.Template.NumReduces)
			}
		}
		if peak := peakConcurrency(allSpans(maps)); peak > cfg.MapSlots {
			t.Fatalf("trial %d: map peak %d > %d slots", trial, peak, cfg.MapSlots)
		}
		if peak := peakConcurrency(allSpans(reduces)); peak > cfg.ReduceSlots {
			t.Fatalf("trial %d: reduce peak %d > %d slots", trial, peak, cfg.ReduceSlots)
		}
	}
}

// The makespan can never beat the obvious work lower bound:
// total map work spread over all map slots (and likewise for reduces),
// and no job can finish faster than its critical path.
func TestEngineMakespanLowerBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		tr := randomTrace(rng, 5)
		cfg := Config{MapSlots: 8, ReduceSlots: 6, MinMapPercentCompleted: 0.05}
		res, err := Run(cfg, tr, sched.FIFO{})
		if err != nil {
			t.Fatal(err)
		}
		var mapWork float64
		for _, j := range tr.Jobs {
			for _, d := range j.Template.MapDurations {
				mapWork += d
			}
		}
		if res.Makespan+1e-9 < mapWork/float64(cfg.MapSlots) {
			t.Fatalf("trial %d: makespan %v beats map work bound %v",
				trial, res.Makespan, mapWork/float64(cfg.MapSlots))
		}
		for i, out := range res.Jobs {
			tpl := tr.Jobs[i].Template
			// critical path: longest map + (first shuffle + reduce) of
			// some wave, roughly longest map alone as a safe bound.
			var longestMap float64
			for _, d := range tpl.MapDurations {
				if d > longestMap {
					longestMap = d
				}
			}
			if out.CompletionTime()+1e-9 < longestMap {
				t.Fatalf("trial %d job %d: completion %v beats longest map %v",
					trial, i, out.CompletionTime(), longestMap)
			}
		}
	}
}

// Replays are insensitive to job order in the trace slice: shuffling the
// (already normalized) jobs and re-normalizing yields identical results.
func TestEngineOrderInsensitivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tr := randomTrace(rng, 6)
		cfg := Config{MapSlots: 10, ReduceSlots: 10, MinMapPercentCompleted: 0.05}
		base, err := Run(cfg, tr, sched.FIFO{})
		if err != nil {
			t.Fatal(err)
		}
		shuffled := &trace.Trace{Name: tr.Name}
		for _, j := range tr.Jobs {
			cj := *j // Normalize renumbers the copies, not tr's jobs
			shuffled.Jobs = append(shuffled.Jobs, &cj)
		}
		rng.Shuffle(len(shuffled.Jobs), func(a, b int) {
			shuffled.Jobs[a], shuffled.Jobs[b] = shuffled.Jobs[b], shuffled.Jobs[a]
		})
		shuffled.Normalize()
		again, err := Run(cfg, shuffled, sched.FIFO{})
		if err != nil {
			t.Fatal(err)
		}
		if base.Makespan != again.Makespan {
			t.Fatalf("trial %d: makespan depends on trace ordering: %v vs %v",
				trial, base.Makespan, again.Makespan)
		}
	}
}
