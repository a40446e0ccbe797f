package simmr

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEndToEndPipeline walks the full public-API pipeline a downstream
// user would follow: emulate a cluster run with history logs, profile
// the logs, persist the trace, reload it, replay it with two policies,
// and compare against the Mumak baseline.
func TestEndToEndPipeline(t *testing.T) {
	apps := PaperApps()
	if len(apps) != 6 {
		t.Fatalf("expected 6 paper applications, got %d", len(apps))
	}

	// 1. Run Sort/16GB on the emulated testbed, capturing logs.
	var logBuf bytes.Buffer
	logw := NewLogWriter(&logBuf)
	cfg := DefaultClusterConfig()
	res, err := RunCluster(cfg, []ClusterJob{{Spec: apps[3].Spec(0)}}, NewFIFO(), logw)
	if err != nil {
		t.Fatal(err)
	}
	actual := res.Jobs[0].CompletionTime()

	// 2. MRProfiler: logs -> trace.
	tr, err := ProfileLogs(&logBuf)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Persist and reload through the trace database.
	db, err := OpenTraceDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr.Name = "sort-16gb"
	if err := db.Put(tr); err != nil {
		t.Fatal(err)
	}
	loaded, err := db.Get("sort-16gb")
	if err != nil {
		t.Fatal(err)
	}

	// 4. Replay with SimMR: completion within the paper's observed
	// accuracy envelope (6.6% worst case, §IV-D).
	rep, err := Replay(DefaultReplayConfig(), loaded, NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	sim := rep.Jobs[0].CompletionTime()
	if errPct := 100 * abs(sim-actual) / actual; errPct > 6.6 {
		t.Fatalf("replay error %.1f%% (actual %.1f, simmr %.1f)", errPct, actual, sim)
	}

	// 5. Mumak baseline underestimates the shuffle-heavy Sort.
	mres, err := ReplayMumak(DefaultMumakConfig(), loaded, NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if mres.Jobs[0].CompletionTime() >= sim {
		t.Fatal("Mumak should underestimate a shuffle-heavy job")
	}
}

func TestSyntheticFacebookPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr, err := GenerateTrace(FacebookShape(), 20, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(DefaultReplayConfig(), tr, NewFair())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 20 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Finish < j.Arrival {
			t.Fatalf("job %d finished before arriving", j.ID)
		}
	}
}

func TestModelHelpers(t *testing.T) {
	tpl := &Template{
		AppName: "m", NumMaps: 40, NumReduces: 8,
		MapDurations:    constSlice(40, 10),
		FirstShuffle:    constSlice(8, 3),
		TypicalShuffle:  constSlice(8, 5),
		ReduceDurations: constSlice(8, 2),
	}
	p := tpl.Profile()
	b := JobBounds(p, 10, 4)
	if b.Low <= 0 || b.Up < b.Low {
		t.Fatalf("bounds: %+v", b)
	}
}

func TestScaleTemplateThroughAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tpl := &Template{AppName: "s", NumMaps: 10, MapDurations: constSlice(10, 2)}
	big, err := ScaleTemplate(tpl, 3, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	if big.NumMaps != 30 {
		t.Fatalf("scaled maps = %d", big.NumMaps)
	}
}

func TestEncodeDecodeTrace(t *testing.T) {
	tr := &Trace{Name: "x", Jobs: []*Job{{
		Template: &Template{AppName: "a", NumMaps: 1, MapDurations: []float64{1}},
	}}}
	tr.Normalize()
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Jobs[0].Template.AppName != "a" {
		t.Fatal("round trip lost data")
	}
}

func TestAllPoliciesRunnable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr, err := ProductionTrace(10, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{NewFIFO(), NewMaxEDF(), NewMinEDF(), NewFair(), NewCapacity([]float64{0.7, 0.3})} {
		res, err := Replay(DefaultReplayConfig(), tr, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(res.Jobs) != 10 {
			t.Fatalf("%s: %d jobs", p.Name(), len(res.Jobs))
		}
	}
}

func constSlice(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
