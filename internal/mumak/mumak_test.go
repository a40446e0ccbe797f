package mumak

import (
	"testing"

	"simmr/internal/engine"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

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

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"no nodes":      func(c *Config) { c.Nodes = 0 },
		"neg slots":     func(c *Config) { c.MapSlotsPerNode = -1 },
		"no heartbeat":  func(c *Config) { c.HeartbeatInterval = 0 },
		"bad slowstart": func(c *Config) { c.MinMapPercentCompleted = -0.1 },
	} {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestMumakCompletesTrace(t *testing.T) {
	res, err := Run(smallConfig(), oneJobTrace(uniformTemplate(16, 4, 10, 5, 7, 3)), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish <= 0 {
		t.Fatal("job never finished")
	}
	if res.Jobs[0].MapStageEnd <= 0 || res.Jobs[0].MapStageEnd > res.Jobs[0].Finish {
		t.Fatalf("map stage end %v out of range", res.Jobs[0].MapStageEnd)
	}
}

// The defining Mumak inaccuracy: because the shuffle phase is not
// modeled, Mumak's completion estimate is below SimMR's for any job with
// nontrivial shuffles.
func TestMumakUnderestimatesVersusEngine(t *testing.T) {
	tpl := uniformTemplate(32, 8, 10, 6, 9, 3)
	mumakRes, err := Run(smallConfig(), oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	engRes, err := engine.Run(engine.Config{
		MapSlots: 4, ReduceSlots: 4, MinMapPercentCompleted: 0.05,
	}, oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	m := mumakRes.Jobs[0].CompletionTime()
	e := engRes.Jobs[0].CompletionTime()
	if m >= e {
		t.Fatalf("Mumak (%v) should underestimate SimMR (%v): no shuffle model", m, e)
	}
	// The deficit should be at least one full shuffle phase.
	if e-m < 6 {
		t.Fatalf("underestimation too small: %v vs %v", m, e)
	}
}

// For a map-only job the two simulators should roughly agree (the only
// difference is Mumak's heartbeat quantization).
func TestMumakAgreesOnMapOnlyJobs(t *testing.T) {
	tpl := uniformTemplate(32, 0, 10, 0, 0, 0)
	mumakRes, err := Run(smallConfig(), oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	engRes, err := engine.Run(engine.Config{
		MapSlots: 4, ReduceSlots: 0, MinMapPercentCompleted: 0.05,
	}, oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	m := mumakRes.Jobs[0].CompletionTime()
	e := engRes.Jobs[0].CompletionTime()
	// 8 waves x up to 1 heartbeat each, plus initial offset.
	slack := 9 * smallConfig().HeartbeatInterval
	if m < e || m > e+slack {
		t.Fatalf("map-only disagreement: mumak %v, engine %v (slack %v)", m, e, slack)
	}
}

// Mumak processes far more events than the task-level engine because it
// simulates every TaskTracker heartbeat (§IV-E).
func TestMumakProcessesManyMoreEvents(t *testing.T) {
	tpl := uniformTemplate(64, 16, 10, 6, 9, 3)
	tr := oneJobTrace(tpl)
	mumakRes, err := Run(DefaultConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	engRes, err := engine.Run(engine.DefaultConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if mumakRes.Events < 10*engRes.Events {
		t.Fatalf("Mumak events (%d) should dwarf engine events (%d)",
			mumakRes.Events, engRes.Events)
	}
}

func TestMumakDeterministic(t *testing.T) {
	tr := oneJobTrace(uniformTemplate(20, 5, 8, 4, 6, 2))
	a, err := Run(smallConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Jobs[0].Finish != b.Jobs[0].Finish || a.Events != b.Events {
		t.Fatal("Mumak replay not deterministic")
	}
}

func TestMumakSlotCapacity(t *testing.T) {
	// 2 nodes x 1 slot: two jobs of 8 maps each serialize into >= 8
	// map waves total.
	cfg := smallConfig()
	cfg.Nodes = 2
	tr := &trace.Trace{Jobs: []*trace.Job{
		{Arrival: 0, Template: uniformTemplate(8, 0, 10, 0, 0, 0)},
		{Arrival: 0, Template: uniformTemplate(8, 0, 10, 0, 0, 0)},
	}}
	tr.Normalize()
	res, err := Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 80 {
		t.Fatalf("16 x 10s maps on 2 slots cannot finish in %v", res.Makespan)
	}
}

func TestMumakFIFOOrder(t *testing.T) {
	tr := &trace.Trace{Jobs: []*trace.Job{
		{Name: "a", Arrival: 0, Template: uniformTemplate(16, 2, 10, 5, 7, 3)},
		{Name: "b", Arrival: 1, Template: uniformTemplate(16, 2, 10, 5, 7, 3)},
	}}
	tr.Normalize()
	res, err := Run(smallConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish >= res.Jobs[1].Finish {
		t.Fatalf("FIFO order violated: %v vs %v", res.Jobs[0].Finish, res.Jobs[1].Finish)
	}
}

func TestMumakMapOnlyJobFinishes(t *testing.T) {
	res, err := Run(smallConfig(), oneJobTrace(uniformTemplate(4, 0, 3, 0, 0, 0)), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish != res.Jobs[0].MapStageEnd {
		t.Fatalf("map-only: finish %v != map end %v", res.Jobs[0].Finish, res.Jobs[0].MapStageEnd)
	}
}

func TestMumakRejectsBadTrace(t *testing.T) {
	if _, err := Run(smallConfig(), &trace.Trace{}, sched.FIFO{}); err == nil {
		t.Fatal("empty trace should fail")
	}
	bad := smallConfig()
	bad.Nodes = 0
	if _, err := Run(bad, oneJobTrace(uniformTemplate(2, 0, 1, 0, 0, 0)), sched.FIFO{}); err == nil {
		t.Fatal("bad config should fail")
	}
	if _, err := Run(smallConfig(), oneJobTrace(uniformTemplate(2, 0, 1, 0, 0, 0)), nil); err == nil {
		t.Fatal("nil policy should fail")
	}
}
