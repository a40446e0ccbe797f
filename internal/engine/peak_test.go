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

// This file checks the rule of DESIGN.md §5, "Capacity above the peak"
// (Answers): a replay that left slots of a kind free throughout answers
// for every other count of that kind above its peak — the Result, every
// field of it, and the event stream down to the run counters.

// peakTraces are seeded production and multi-tenant traces, and a burst:
// a multi-tenant trace whose jobs all arrive at once.
func peakTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, seed := range []int64{1, 2} {
		prod, err := synth.ProductionTrace(12, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		mt, err := synth.MultiTenantTrace(120, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		burst, err := synth.MultiTenantTrace(60, rand.New(rand.NewSource(seed+10)))
		if err != nil {
			t.Fatal(err)
		}
		burst.Name = "burst"
		for _, j := range burst.Jobs {
			j.Arrival = 0
		}
		out = append(out, prod, mt, burst)
	}
	return out
}

// peakPolicies are the policies the rule admits, as factories: four
// built-ins on their scheduling index, FIFO forced through the paper's
// per-slot scan, and DynamicPriority, which carries state from slot to
// slot and so needs an instance per replay.
func peakPolicies() []struct {
	name string
	mk   func() sched.Policy
} {
	return []struct {
		name string
		mk   func() sched.Policy
	}{
		{"FIFO", func() sched.Policy { return sched.FIFO{} }},
		{"MaxEDF", func() sched.Policy { return sched.MaxEDF{} }},
		{"Fair", func() sched.Policy { return sched.Fair{} }},
		{"Capacity", func() sched.Policy { return sched.Capacity{Shares: []float64{3, 1, 2}} }},
		{"scan-FIFO", func() sched.Policy { return schedtest.ScanOnly(sched.FIFO{}) }},
		{"DynamicPriority", func() sched.Policy {
			return sched.NewDynamicPriority(map[int]float64{1: 40, 3: 90, 5: 20}, map[int]float64{1: 2, 3: 3, 5: 1})
		}},
	}
}

// above draws a count of one slot kind that a replay at ran slots with
// the given peak answers for: any count above the peak when the replay
// left a slot free, else ran itself.
func above(rng *rand.Rand, peak, ran int) int {
	if peak >= ran {
		return ran
	}
	return peak + 1 + rng.Intn(ran-peak+64)
}

// TestReplayAboveThePeakIsIdentical replays every trace under every
// admitted policy on a roomy cluster, then again at random slot counts
// above the first replay's peaks — below the first cluster as well as
// beyond it — and demands DeepEqual Results and identical streams.
func TestReplayAboveThePeakIsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	traces, policies := peakTraces(t), peakPolicies()
	var varied int
	for i, tr := range traces {
		for _, pc := range policies {
			t.Run(fmt.Sprintf("%d-%s/%s", i, tr.Name, pc.name), func(t *testing.T) {
				for draw := 0; draw < 4; draw++ {
					ran := Config{MapSlots: 8 + rng.Intn(400), ReduceSlots: 8 + rng.Intn(200), MinMapPercentCompleted: []float64{0.05, 1}[draw%2]}
					res, sink := replayRecorded(t, ran, tr, pc.mk())
					want := ran
					want.MapSlots = above(rng, res.PeakMapSlots, ran.MapSlots)
					want.ReduceSlots = above(rng, res.PeakReduceSlots, ran.ReduceSlots)
					if !Answers(res, ran, want, pc.mk()) {
						t.Fatalf("peaks %d+%d of a %d+%d replay: Answers refuses %d+%d", res.PeakMapSlots, res.PeakReduceSlots,
							ran.MapSlots, ran.ReduceSlots, want.MapSlots, want.ReduceSlots)
					}
					got, gotSink := replayRecorded(t, want, tr, pc.mk())
					if !reflect.DeepEqual(got, res) {
						t.Fatalf("%d+%d replay (peaks %d+%d) and %d+%d replay differ: totals %d/%v/%d+%d vs %d/%v/%d+%d",
							ran.MapSlots, ran.ReduceSlots, res.PeakMapSlots, res.PeakReduceSlots, want.MapSlots, want.ReduceSlots,
							res.Events, res.Makespan, res.PeakMapSlots, res.PeakReduceSlots, got.Events, got.Makespan, got.PeakMapSlots, got.PeakReduceSlots)
					}
					if !reflect.DeepEqual(gotSink, sink) {
						t.Fatalf("%d+%d replay and %d+%d replay streamed differently", ran.MapSlots, ran.ReduceSlots, want.MapSlots, want.ReduceSlots)
					}
					if want != ran {
						varied++
					}
				}
			})
		}
	}
	t.Logf("%d draws moved a slot count", varied)
	// The test is only as good as the draws that moved a slot count.
	if want := len(traces) * len(policies) * 2; varied < want {
		t.Fatalf("only %d draws moved a slot count, want at least %d", varied, want)
	}
}

// TestAnswersRefuses pins the predicate's conditions one by one.
func TestAnswersRefuses(t *testing.T) {
	tr, err := synth.MultiTenantTrace(30, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	ran := Config{MapSlots: 400, ReduceSlots: 300, MinMapPercentCompleted: 0.05}
	res, err := Run(ran, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakMapSlots >= ran.MapSlots || res.PeakReduceSlots >= ran.ReduceSlots || res.PeakMapSlots == 0 {
		t.Fatalf("peaks %d+%d: the cases below need slack in both kinds", res.PeakMapSlots, res.PeakReduceSlots)
	}
	roomy := ran
	roomy.MapSlots, roomy.ReduceSlots = res.PeakMapSlots+1, res.PeakReduceSlots+1
	if !Answers(res, ran, roomy, sched.FIFO{}) {
		t.Fatal("a cluster one slot above each peak is refused")
	}
	observed := roomy
	observed.Sink = &obs.RecordSink{}
	if !Answers(res, ran, observed, sched.FIFO{}) {
		t.Fatal("a sink, which only observes, is refused")
	}

	preempt := ran
	preempt.PreemptMapTasks = true
	atPeak, slowstart := roomy, roomy
	atPeak.MapSlots = res.PeakMapSlots
	slowstart.MinMapPercentCompleted = 1
	for _, c := range []struct {
		name      string
		ran, want Config
		policy    sched.Policy
	}{
		{"MinEDF sizes jobs by the slot totals", ran, roomy, sched.MinEDF{}},
		{"MinEDF on the scan path", ran, roomy, schedtest.ScanOnly(sched.MinEDF{})},
		{"PreemptMapTasks counts free slots", preempt, roomy, sched.FIFO{}},
		{"a count at the peak", ran, atPeak, sched.FIFO{}},
		{"another slowstart", ran, slowstart, sched.FIFO{}},
	} {
		if Answers(res, c.ran, c.want, c.policy) {
			t.Errorf("%s: Answers accepts", c.name)
		}
	}

	// A replay that used every map slot answers for its own map count only.
	full := Config{MapSlots: 2, ReduceSlots: 300, MinMapPercentCompleted: 0.05}
	tight, err := Run(full, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if tight.PeakMapSlots != full.MapSlots {
		t.Fatalf("a 2-slot replay of %d jobs peaked at %d map slots", len(tr.Jobs), tight.PeakMapSlots)
	}
	more := full
	more.MapSlots = 3
	if Answers(tight, full, more, sched.FIFO{}) {
		t.Error("a replay with no map slot to spare answers for a larger cluster")
	}
	more.MapSlots, more.ReduceSlots = 2, tight.PeakReduceSlots+1
	if !Answers(tight, full, more, sched.FIFO{}) {
		t.Error("a saturated kind must not stop the other kind's reuse")
	}
}
