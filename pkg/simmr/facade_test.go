package simmr

import (
	"math/rand"
	"testing"
)

func TestParseDistFacade(t *testing.T) {
	d, err := ParseDist("exponential(12)")
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() != 12 {
		t.Fatalf("mean = %v", d.Mean())
	}
	if _, err := ParseDist("nope(1)"); err == nil {
		t.Fatal("bad expression should fail")
	}
}

func TestParseWorkloadDescFacade(t *testing.T) {
	js := `{"jobs":6,"mean_interarrival":10,"classes":[
		{"name":"a","num_maps":"constant(4)","map":"constant(2)"}]}`
	wd, err := ParseWorkloadDesc([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := wd.Generate(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 6 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
	if _, err := ParseWorkloadDesc([]byte("{")); err == nil {
		t.Fatal("bad JSON should fail")
	}
}

func TestDynamicPriorityFacade(t *testing.T) {
	p := NewDynamicPriority(map[int]float64{0: 10}, map[int]float64{0: 1})
	if p.Name() != "DynamicPriority" {
		t.Fatal(p.Name())
	}
	tr := &Trace{Jobs: []*Job{{
		Template: &Template{AppName: "d", NumMaps: 2, MapDurations: []float64{1, 1}},
	}}}
	tr.Normalize()
	res, err := Replay(ReplayConfig{MapSlots: 2, ReduceSlots: 1, MinMapPercentCompleted: 0.05}, tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish != 1 {
		t.Fatalf("finish = %v", res.Jobs[0].Finish)
	}
}

func TestLocalityConstantsAndBreakdown(t *testing.T) {
	apps := PaperApps()
	cfg := DefaultClusterConfig()
	cfg.Workers = 8
	res, err := RunCluster(cfg, []ClusterJob{{Spec: apps[4].Spec(0)}}, NewFIFO(), nil) // TFIDF: quick
	if err != nil {
		t.Fatal(err)
	}
	loc := res.LocalityBreakdown()
	total := loc[NodeLocal] + loc[RackLocal] + loc[OffRack]
	if total != len(res.Jobs[0].Maps) {
		t.Fatalf("breakdown total %d != %d maps", total, len(res.Jobs[0].Maps))
	}
}

func TestDefaultConfigsSane(t *testing.T) {
	rc := DefaultReplayConfig()
	if rc.MapSlots != 64 || rc.ReduceSlots != 64 {
		t.Fatalf("replay config: %+v", rc)
	}
	mc := DefaultMumakConfig()
	if mc.Nodes != 64 {
		t.Fatalf("mumak config: %+v", mc)
	}
	cc := DefaultClusterConfig()
	if err := cc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJobBoundsFacade(t *testing.T) {
	tpl := &Template{
		AppName: "b", NumMaps: 10, NumReduces: 2,
		MapDurations:    constSlice(10, 5),
		FirstShuffle:    constSlice(2, 1),
		TypicalShuffle:  constSlice(2, 2),
		ReduceDurations: constSlice(2, 1),
	}
	b := JobBounds(tpl.Profile(), 5, 2)
	if !(b.Low > 0 && b.Low <= b.Up) {
		t.Fatalf("bounds disordered: %+v", b)
	}
}
