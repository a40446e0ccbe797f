package engine

import (
	"math"
	"testing"

	"simmr/internal/sched"
	"simmr/internal/trace"
)

// uniformTemplate builds a template with constant durations for exact
// hand-computable replays.
func uniformTemplate(maps, reduces int, mapD, firstSh, typSh, redD float64) *trace.Template {
	tpl := &trace.Template{
		AppName: "u", NumMaps: maps, NumReduces: reduces,
		MapDurations: fill(maps, mapD),
	}
	if reduces > 0 {
		tpl.FirstShuffle = fill(reduces, firstSh)
		tpl.TypicalShuffle = fill(reduces, typSh)
		tpl.ReduceDurations = fill(reduces, redD)
	}
	return tpl
}

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func oneJobTrace(tpl *trace.Template) *trace.Trace {
	tr := &trace.Trace{Jobs: []*trace.Job{{Template: tpl}}}
	tr.Normalize()
	return tr
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"no map slots":  func(c *Config) { c.MapSlots = 0 },
		"neg reduce":    func(c *Config) { c.ReduceSlots = -1 },
		"bad slowstart": func(c *Config) { c.MinMapPercentCompleted = 2 },
	} {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := New(cfg, &trace.Trace{}, sched.FIFO{}); err == nil {
		t.Fatal("empty trace should fail")
	}
	if _, err := New(cfg, oneJobTrace(uniformTemplate(2, 0, 1, 0, 0, 0)), nil); err == nil {
		t.Fatal("nil policy should fail")
	}
	cfg.ReduceSlots = 0
	if _, err := New(cfg, oneJobTrace(uniformTemplate(2, 2, 1, 1, 1, 1)), sched.FIFO{}); err == nil {
		t.Fatal("job with reduces on reduce-less cluster should fail")
	}
	// A NaN deadline, the value SetDeadline refuses, and an arrival at
	// +Inf, which would leave the replay deadlocked with the job
	// unfinished.
	for _, c := range []struct{ arrival, deadline float64 }{{0, math.NaN()}, {math.Inf(1), 0}} {
		tr := oneJobTrace(uniformTemplate(2, 1, 1, 1, 1, 1))
		tr.Jobs[0].Arrival, tr.Jobs[0].Deadline = c.arrival, c.deadline
		if _, err := New(DefaultConfig(), tr, sched.MaxEDF{}); err == nil {
			t.Errorf("arrival %v, deadline %v should fail", c.arrival, c.deadline)
		}
	}
}

// Exact hand computation: 8 maps of 10 s on 4 slots = 2 waves = 20 s map
// stage. 2 reduces (both first wave, started after first map at t=10,
// wait, slowstart fires after 1 map completes): first shuffle 5 s after
// map end, reduce phase 3 s. Completion = 20 + 5 + 3 = 28.
func TestExactReplaySingleJob(t *testing.T) {
	cfg := Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.05}
	tpl := uniformTemplate(8, 2, 10, 5, 7, 3)
	res, err := Run(cfg, oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Jobs[0]
	if out.MapStageEnd != 20 {
		t.Fatalf("map stage end = %v, want 20", out.MapStageEnd)
	}
	if out.Finish != 28 {
		t.Fatalf("finish = %v, want 28 (mapEnd + firstShuffle + reduce)", out.Finish)
	}
}

// With more reduces than slots, the second reduce wave uses typical
// shuffles: 4 reduces on 2 slots. Wave 1 (first-wave): end 20+5+3 = 28.
// Wave 2 starts at 28: 28 + 7 + 3 = 38.
func TestExactReplayTwoReduceWaves(t *testing.T) {
	cfg := Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.05}
	tpl := uniformTemplate(8, 4, 10, 5, 7, 3)
	res, err := Run(cfg, oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish != 38 {
		t.Fatalf("finish = %v, want 38", res.Jobs[0].Finish)
	}
}

func TestMapOnlyJob(t *testing.T) {
	cfg := Config{MapSlots: 2, ReduceSlots: 0, MinMapPercentCompleted: 0.05}
	tpl := uniformTemplate(4, 0, 6, 0, 0, 0)
	res, err := Run(cfg, oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish != 12 {
		t.Fatalf("finish = %v, want 12", res.Jobs[0].Finish)
	}
	if res.Jobs[0].MapStageEnd != 12 {
		t.Fatalf("map stage end = %v", res.Jobs[0].MapStageEnd)
	}
}

func TestSlowstartGate(t *testing.T) {
	// minMapPercent=0.5 with 8 maps: reduces launch only after 4 maps
	// done. With 4 map slots and 10s maps, that is t=10 (first wave of 4
	// completes). All-maps-end at 20, reduces are first-wave.
	cfg := Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.5}
	tpl := uniformTemplate(8, 2, 10, 5, 7, 3)
	_, _, reduces := taskSpans(t, cfg, oneJobTrace(tpl), sched.FIFO{})
	if len(reduces[0]) != 2 {
		t.Fatalf("%d reduce spans, want 2", len(reduces[0]))
	}
	for _, rs := range reduces[0] {
		if rs.Start < 10 {
			t.Fatalf("reduce %d started at %v, before 50%% of maps completed", rs.Task, rs.Start)
		}
	}
}

// The task spans the event stream yields are the engine's own task
// intervals: one per task, the recorded durations, shuffle before reduce
// and never before the map stage ends, each pinned to a slot of its class.
func TestRecordedSpansConsistent(t *testing.T) {
	cfg := Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.05}
	tpl := uniformTemplate(8, 4, 10, 5, 7, 3)
	res, maps, reduces := taskSpans(t, cfg, oneJobTrace(tpl), sched.FIFO{})
	out := res.Jobs[0]
	if len(maps[0]) != 8 || len(reduces[0]) != 4 {
		t.Fatalf("span counts %d/%d", len(maps[0]), len(reduces[0]))
	}
	for _, s := range maps[0] {
		if s.End-s.Start != 10 {
			t.Fatalf("map span %d duration %v", s.Task, s.End-s.Start)
		}
		if s.Slot < 0 || s.Slot >= cfg.MapSlots {
			t.Fatalf("map span %d on slot %d of %d", s.Task, s.Slot, cfg.MapSlots)
		}
	}
	for _, s := range reduces[0] {
		if !(s.Start < s.ShuffleEnd && s.ShuffleEnd < s.End) {
			t.Fatalf("reduce span %d disordered: %+v", s.Task, s)
		}
		if s.ShuffleEnd < out.MapStageEnd {
			t.Fatalf("reduce span %d shuffle ended before map stage", s.Task)
		}
		if s.Slot < 0 || s.Slot >= cfg.ReduceSlots {
			t.Fatalf("reduce span %d on slot %d of %d", s.Task, s.Slot, cfg.ReduceSlots)
		}
	}
}

func TestSlotCapacityRespected(t *testing.T) {
	cfg := Config{MapSlots: 3, ReduceSlots: 2, MinMapPercentCompleted: 0.05}
	tpl := uniformTemplate(10, 6, 7, 2, 4, 1)
	_, maps, reduces := taskSpans(t, cfg, oneJobTrace(tpl), sched.FIFO{})
	if peak := peakConcurrency(maps[0]); peak != 3 {
		t.Fatalf("map concurrency %d, want all 3 slots busy and no more", peak)
	}
	if peak := peakConcurrency(reduces[0]); peak != 2 {
		t.Fatalf("reduce concurrency %d, want both slots busy and no more", peak)
	}
}

func TestMultipleJobsFIFO(t *testing.T) {
	tr := &trace.Trace{Jobs: []*trace.Job{
		{Name: "a", Arrival: 0, Template: uniformTemplate(8, 2, 10, 5, 7, 3)},
		{Name: "b", Arrival: 1, Template: uniformTemplate(8, 2, 10, 5, 7, 3)},
	}}
	tr.Normalize()
	cfg := Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.05}
	res, err := Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish >= res.Jobs[1].Finish {
		t.Fatalf("FIFO order violated: %v vs %v", res.Jobs[0].Finish, res.Jobs[1].Finish)
	}
	// Pipelining: job b's maps start while job a shuffles, so b finishes
	// well before 2x a single-job latency.
	if res.Jobs[1].Finish >= 2*res.Jobs[0].Finish {
		t.Fatalf("no pipelining: b at %v, a at %v", res.Jobs[1].Finish, res.Jobs[0].Finish)
	}
}

func TestEDFReordersJobs(t *testing.T) {
	mk := func(deadlineA, deadlineB float64) (finishA, finishB float64) {
		tr := &trace.Trace{Jobs: []*trace.Job{
			{Name: "a", Arrival: 0, Deadline: deadlineA, Template: uniformTemplate(16, 2, 10, 5, 7, 3)},
			{Name: "b", Arrival: 0, Deadline: deadlineB, Template: uniformTemplate(16, 2, 10, 5, 7, 3)},
		}}
		tr.Normalize()
		cfg := Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.05}
		res, err := Run(cfg, tr, sched.MaxEDF{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Jobs[0].Finish, res.Jobs[1].Finish
	}
	fa1, fb1 := mk(100, 10000)
	if fa1 >= fb1 {
		t.Fatalf("EDF should favor a: %v vs %v", fa1, fb1)
	}
	fa2, fb2 := mk(10000, 100)
	if fb2 >= fa2 {
		t.Fatalf("EDF should favor b: %v vs %v", fa2, fb2)
	}
}

func TestMinEDFAllocatesMinimally(t *testing.T) {
	// A single job with a relaxed deadline: MaxEDF finishes it as fast as
	// possible; MinEDF deliberately uses fewer slots, finishing later but
	// still within the deadline. That difference is the whole point of
	// MinEDF (§V-A).
	mkTrace := func() *trace.Trace {
		tr := &trace.Trace{Jobs: []*trace.Job{
			{Name: "relaxed", Arrival: 0, Deadline: 2000, Template: uniformTemplate(64, 8, 10, 5, 7, 3)},
		}}
		tr.Normalize()
		return tr
	}
	cfg := Config{MapSlots: 16, ReduceSlots: 8, MinMapPercentCompleted: 0.05}
	min, err := Run(cfg, mkTrace(), sched.MinEDF{})
	if err != nil {
		t.Fatal(err)
	}
	max, err := Run(cfg, mkTrace(), sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	if min.Jobs[0].Finish <= max.Jobs[0].Finish {
		t.Fatalf("MinEDF should trade latency for slots: MinEDF %v vs MaxEDF %v",
			min.Jobs[0].Finish, max.Jobs[0].Finish)
	}
	if min.Jobs[0].Finish > min.Jobs[0].Deadline {
		t.Fatalf("MinEDF missed the deadline it sized for: %v > %v",
			min.Jobs[0].Finish, min.Jobs[0].Deadline)
	}
}

func TestMinEDFSharesClusterUnderContention(t *testing.T) {
	// Two jobs with relaxed deadlines arriving together: under MinEDF
	// both get minimal allocations and run concurrently, so both meet
	// their deadlines; under MaxEDF the first hogs the cluster.
	mkTrace := func() *trace.Trace {
		tr := &trace.Trace{Jobs: []*trace.Job{
			{Name: "j1", Arrival: 0, Deadline: 1200, Template: uniformTemplate(64, 8, 10, 5, 7, 3)},
			{Name: "j2", Arrival: 0, Deadline: 1210, Template: uniformTemplate(64, 8, 10, 5, 7, 3)},
		}}
		tr.Normalize()
		return tr
	}
	cfg := Config{MapSlots: 16, ReduceSlots: 8, MinMapPercentCompleted: 0.05}
	min, err := Run(cfg, mkTrace(), sched.MinEDF{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range min.Jobs {
		if j.ExceededDeadline() {
			t.Fatalf("MinEDF job %s missed deadline: finish %v > %v", j.Name, j.Finish, j.Deadline)
		}
	}
	// Concurrency check: job 2 must start its maps before job 1 is done.
	if min.Jobs[1].Finish-min.Jobs[0].Finish > 600 {
		t.Fatalf("jobs appear serialized under MinEDF: %v then %v",
			min.Jobs[0].Finish, min.Jobs[1].Finish)
	}
}

func TestDeterministicReplay(t *testing.T) {
	tr := &trace.Trace{Jobs: []*trace.Job{
		{Arrival: 0, Template: uniformTemplate(20, 8, 9, 4, 6, 2)},
		{Arrival: 13, Template: uniformTemplate(12, 4, 11, 3, 5, 2)},
	}}
	tr.Normalize()
	cfg := DefaultConfig()
	a, err := Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Finish != b.Jobs[i].Finish {
			t.Fatalf("job %d nondeterministic: %v vs %v", i, a.Jobs[i].Finish, b.Jobs[i].Finish)
		}
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
}

func TestNonContiguousJobIDs(t *testing.T) {
	// A validated trace whose IDs are not 0..n-1 must still replay.
	tr := &trace.Trace{Jobs: []*trace.Job{
		{ID: 17, Arrival: 0, Template: uniformTemplate(4, 1, 5, 2, 3, 1)},
		{ID: 99, Arrival: 2, Template: uniformTemplate(4, 1, 5, 2, 3, 1)},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{MapSlots: 2, ReduceSlots: 1, MinMapPercentCompleted: 0.05}
	res, err := Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].ID != 17 || res.Jobs[1].ID != 99 {
		t.Fatalf("IDs mangled: %d %d", res.Jobs[0].ID, res.Jobs[1].ID)
	}
	if res.Jobs[0].Finish <= 0 || res.Jobs[1].Finish <= 0 {
		t.Fatal("jobs did not complete")
	}
}

func TestJobOutcomeHelpers(t *testing.T) {
	o := JobOutcome{Arrival: 10, Finish: 30, Deadline: 25}
	if o.CompletionTime() != 20 {
		t.Fatal(o.CompletionTime())
	}
	if !o.ExceededDeadline() {
		t.Fatal("deadline exceeded not detected")
	}
	o.Deadline = 0
	if o.ExceededDeadline() {
		t.Fatal("no-deadline job cannot exceed")
	}
}

func TestFillerPatchedNotLeaked(t *testing.T) {
	// All reduces first-wave: engine must drain completely with no
	// Infinity events left (Run would deadlock or mis-time otherwise).
	cfg := Config{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05}
	tpl := uniformTemplate(16, 8, 10, 5, 7, 3)
	res, err := Run(cfg, oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.Jobs[0].Finish, 1) || res.Jobs[0].Finish > 1e9 {
		t.Fatalf("filler never patched: finish %v", res.Jobs[0].Finish)
	}
}

func TestVaryingTaskDurationsReplayedInOrder(t *testing.T) {
	// Map durations 1..6 on one slot: completion = sum = 21.
	tpl := &trace.Template{
		AppName: "seq", NumMaps: 6,
		MapDurations: []float64{1, 2, 3, 4, 5, 6},
	}
	cfg := Config{MapSlots: 1, ReduceSlots: 0, MinMapPercentCompleted: 0.05}
	res, err := Run(cfg, oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish != 21 {
		t.Fatalf("finish = %v, want 21", res.Jobs[0].Finish)
	}
}

func TestEventsCounted(t *testing.T) {
	cfg := Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.05}
	tpl := uniformTemplate(8, 2, 10, 5, 7, 3)
	res, err := Run(cfg, oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	// 1 arrival + 1 departure + 8*2 map events + 2*2 reduce events +
	// 1 map-stage event = 23.
	if res.Events != 23 {
		t.Fatalf("events = %d, want 23", res.Events)
	}
}
