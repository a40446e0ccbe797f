package synth

import (
	"math/rand"
	"reflect"
	"testing"

	"simmr/internal/trace"
)

func streamCfg(n, pool int) StreamConfig {
	return StreamConfig{
		Name:             "stream-test",
		Jobs:             n,
		MeanInterArrival: 5,
		TemplatePool:     pool,
		DeadlineFraction: 0.5,
		DeadlineSlack:    600,
		Shapes:           []WeightedShape{{Shape: MultiTenantShape(), Weight: 1}},
	}
}

func TestStreamCollect(t *testing.T) {
	s, err := NewStream(streamCfg(200, 8), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 200 {
		t.Fatalf("%d jobs, want 200", len(tr.Jobs))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("streamed trace invalid: %v", err)
	}
	uniq := make(map[*trace.Template]bool)
	deadlines := 0
	for i, j := range tr.Jobs {
		if j.ID != i {
			t.Fatalf("job %d has ID %d, want sequential", i, j.ID)
		}
		if i > 0 && j.Arrival < tr.Jobs[i-1].Arrival {
			t.Fatalf("job %d arrival %v before predecessor %v", i, j.Arrival, tr.Jobs[i-1].Arrival)
		}
		if j.HasDeadline() {
			deadlines++
		}
		uniq[j.Template] = true
	}
	if len(uniq) != 8 {
		t.Fatalf("%d unique templates, want the pool size 8", len(uniq))
	}
	if deadlines == 0 || deadlines == 200 {
		t.Fatalf("%d/200 jobs with deadlines; DeadlineFraction 0.5 should give a mix", deadlines)
	}
	if s.Emitted() != 200 {
		t.Fatalf("Emitted() = %d", s.Emitted())
	}
	if _, ok, _ := s.Next(); ok {
		t.Fatal("exhausted stream yielded another job")
	}
}

func TestStreamDeterministic(t *testing.T) {
	collect := func() *trace.Trace {
		s, err := NewStream(streamCfg(100, 4), rand.New(rand.NewSource(77)))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := collect(), collect()
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("lengths differ")
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.ID != jb.ID || ja.Arrival != jb.Arrival || ja.Deadline != jb.Deadline {
			t.Fatalf("job %d differs across identically seeded streams", i)
		}
		if !reflect.DeepEqual(ja.Template.MapDurations, jb.Template.MapDurations) {
			t.Fatalf("job %d template differs across identically seeded streams", i)
		}
	}
}

func TestStreamFreshTemplates(t *testing.T) {
	cfg := streamCfg(50, 0) // no pool: every job draws a fresh template
	s, err := NewStream(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	uniq := make(map[*trace.Template]bool)
	for _, j := range tr.Jobs {
		uniq[j.Template] = true
	}
	if len(uniq) != 50 {
		t.Fatalf("%d unique templates, want one per job", len(uniq))
	}
}

func TestStreamProductionShapes(t *testing.T) {
	cfg := streamCfg(60, 12)
	cfg.Shapes = ProductionShapes()
	s, err := NewStream(cfg, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	apps := make(map[string]bool)
	for _, j := range tr.Jobs {
		apps[j.Template.AppName] = true
	}
	if len(apps) < 2 {
		t.Fatalf("only %d app shapes drawn from the production set", len(apps))
	}
}

func TestStreamConfigErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []StreamConfig{
		{},
		{Jobs: 10},
		{Jobs: 10, Shapes: []WeightedShape{{Shape: MultiTenantShape(), Weight: 0}}},
		{Jobs: 10, Shapes: []WeightedShape{{Shape: nil, Weight: 1}}},
		{Jobs: 10, MeanInterArrival: -1, Shapes: []WeightedShape{{Shape: MultiTenantShape(), Weight: 1}}},
		{Jobs: 10, DeadlineFraction: 2, Shapes: []WeightedShape{{Shape: MultiTenantShape(), Weight: 1}}},
		{Jobs: 10, DeadlineFraction: 0.5, Shapes: []WeightedShape{{Shape: MultiTenantShape(), Weight: 1}}},
		{Jobs: 10, TemplatePool: -1, Shapes: []WeightedShape{{Shape: MultiTenantShape(), Weight: 1}}},
	}
	for i, cfg := range bad {
		if _, err := NewStream(cfg, rng); err == nil {
			t.Errorf("config %d: expected error, got none", i)
		}
	}
}

// Emitted reports how many jobs the stream has yielded so far.
func (s *Stream) Emitted() int { return s.next }
