package synth

import (
	"math"
	"math/rand"
	"testing"

	"simmr/internal/stats"
	"simmr/internal/trace"
)

func TestGenerateShapeProducesValidTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shape := &JobShape{
		Name:           "t",
		NumMaps:        stats.Uniform{A: 1, B: 50},
		NumReduces:     stats.Uniform{A: 0, B: 10},
		Map:            stats.Exponential{MeanV: 20},
		TypicalShuffle: stats.Exponential{MeanV: 5},
		Reduce:         stats.Exponential{MeanV: 3},
	}
	for i := 0; i < 200; i++ {
		tpl, err := shape.Generate(rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := tpl.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestGenerateShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := (&JobShape{Name: "x"}).Generate(rng); err == nil {
		t.Fatal("missing map dists should fail")
	}
	s := &JobShape{
		Name:    "y",
		NumMaps: stats.Constant{V: 3}, Map: stats.Constant{V: 1},
		NumReduces: stats.Constant{V: 2},
	}
	if _, err := s.Generate(rng); err == nil {
		t.Fatal("reduces without shuffle dists should fail")
	}
}

func TestGenerateTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shape := FacebookShape()
	tr, err := GenerateTrace(shape, 50, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 50 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Arrivals sorted, roughly exponential with mean 100.
	var gaps []float64
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].Arrival < tr.Jobs[i-1].Arrival {
			t.Fatal("arrivals unsorted")
		}
		gaps = append(gaps, tr.Jobs[i].Arrival-tr.Jobs[i-1].Arrival)
	}
	mean := stats.Summarize(gaps).Mean
	if mean < 30 || mean > 300 {
		t.Fatalf("inter-arrival mean %v wildly off 100", mean)
	}
	if _, err := GenerateTrace(shape, 0, 1, rng); err == nil {
		t.Fatal("n=0 should fail")
	}
}

func TestFacebookDistributionsMatchPaperParameters(t *testing.T) {
	// The sampled log-durations (in ms) must recover the paper's fitted
	// LogNormal parameters.
	rng := rand.New(rand.NewSource(4))
	xs := stats.SampleN(FacebookMapDist(), 20000, rng)
	var meanLog, n float64
	for _, x := range xs {
		meanLog += math.Log(x * 1000)
		n++
	}
	meanLog /= n
	if math.Abs(meanLog-FacebookMapMu) > 0.05 {
		t.Fatalf("map log-mean %v, want %v", meanLog, FacebookMapMu)
	}
}

func TestFacebookShapeGeneratesHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shape := FacebookShape()
	var maxDur float64
	var count int
	for i := 0; i < 50; i++ {
		tpl, err := shape.Generate(rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range tpl.MapDurations {
			count++
			if d > maxDur {
				maxDur = d
			}
		}
	}
	// LogNormal(9.95, 1.68) in ms: median ~21 s but the tail reaches
	// thousands of seconds.
	if maxDur < 200 {
		t.Fatalf("no heavy tail: max map duration %v over %d tasks", maxDur, count)
	}
}

func TestProductionTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr, err := ProductionTrace(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 100 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	apps := map[string]int{}
	for _, j := range tr.Jobs {
		apps[j.Template.AppName]++
	}
	if len(apps) < 4 {
		t.Fatalf("production trace uses only %d app classes", len(apps))
	}
	if _, err := ProductionTrace(0, rng); err == nil {
		t.Fatal("n=0 should fail")
	}
}

func TestProductionTraceDeterministic(t *testing.T) {
	a, err := ProductionTrace(30, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProductionTrace(30, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Arrival != b.Jobs[i].Arrival ||
			a.Jobs[i].Template.NumMaps != b.Jobs[i].Template.NumMaps {
			t.Fatalf("job %d differs across same-seed generations", i)
		}
	}
}

func tpl(maps int) *trace.Template {
	ds := make([]float64, maps)
	for i := range ds {
		ds[i] = 1
	}
	return &trace.Template{AppName: "t", NumMaps: maps, MapDurations: ds}
}

func TestWrapperStrings(t *testing.T) {
	ms := msDist{stats.Constant{V: 1000}}
	if ms.String() == "" {
		t.Fatal("msDist has empty String")
	}
	sc := scaled{stats.Constant{V: 10}, 0.5}
	if sc.String() == "" {
		t.Fatal("scaled has empty String")
	}
}

func TestScaledAndMsDistWrappers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	base := stats.Constant{V: 1000}
	ms := msDist{base}
	if got := ms.Sample(rng); got != 1 {
		t.Fatalf("msDist sample = %v", got)
	}
	if ms.Mean() != 1 {
		t.Fatalf("msDist mean = %v", ms.Mean())
	}
	if ms.CDF(0.5) != 0 || ms.CDF(1.5) != 1 {
		t.Fatal("msDist CDF wrong")
	}
	sc := scaled{stats.Constant{V: 10}, 0.5}
	if sc.Sample(rng) != 5 || sc.Mean() != 5 {
		t.Fatal("scaled wrapper wrong")
	}
	if sc.CDF(4) != 0 || sc.CDF(6) != 1 {
		t.Fatal("scaled CDF wrong")
	}
}
