package workload

import (
	"math"
	"testing"
)

func TestAppsAllValid(t *testing.T) {
	apps := Apps()
	if len(apps) != 6 {
		t.Fatalf("paper has 6 applications, got %d", len(apps))
	}
	names := map[string]bool{}
	for _, a := range apps {
		names[a.Name] = true
		if len(a.Datasets) != 3 {
			t.Errorf("%s: %d dataset variants, want 3 (paper runs three sizes)", a.Name, len(a.Datasets))
		}
		for _, s := range a.Datasets {
			if err := s.Validate(); err != nil {
				t.Errorf("%s/%s: %v", a.Name, s.Dataset, err)
			}
			if s.App != a.Name {
				t.Errorf("%s: spec names itself %q", a.Name, s.App)
			}
		}
	}
	for _, want := range []string{"WordCount", "Sort", "Bayes", "TFIDF", "WikiTrends", "Twitter"} {
		if !names[want] {
			t.Errorf("missing paper application %s", want)
		}
	}
}

// app returns the named paper application.
func app(t *testing.T, name string) App {
	t.Helper()
	for _, a := range Apps() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no paper application %q", name)
	return App{}
}

func TestSpecIndexPanics(t *testing.T) {
	a := app(t, "Sort")
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range dataset index should panic")
		}
	}()
	a.Spec(99)
}

func TestSpecDerivedQuantities(t *testing.T) {
	s := Spec{
		App: "x", Dataset: "d", NumMaps: 100, NumReduces: 10,
		BlockMB: 64, Selectivity: 0.5,
	}
	if s.InputMB() != 6400 {
		t.Fatalf("InputMB = %v", s.InputMB())
	}
	if s.IntermediateMB() != 3200 {
		t.Fatalf("IntermediateMB = %v", s.IntermediateMB())
	}
	if s.PartitionMB() != 320 {
		t.Fatalf("PartitionMB = %v", s.PartitionMB())
	}
	s.NumReduces = 0
	if s.PartitionMB() != 0 {
		t.Fatal("map-only job should shuffle nothing")
	}
}

func TestSpecValidateErrors(t *testing.T) {
	base := Apps()[0].Spec(0)
	cases := map[string]func(*Spec){
		"no maps":         func(s *Spec) { s.NumMaps = 0 },
		"neg reduces":     func(s *Spec) { s.NumReduces = -1 },
		"no block":        func(s *Spec) { s.BlockMB = 0 },
		"neg selectivity": func(s *Spec) { s.Selectivity = -0.1 },
		"nil map dist":    func(s *Spec) { s.MapCompute = nil },
		"nil red dist":    func(s *Spec) { s.ReduceCompute = nil },
	}
	for name, mutate := range cases {
		s := base
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestMapCountsMatchDatasetSizes(t *testing.T) {
	// One map per 64MB block: WordCount 32GB -> 512 maps.
	wc := app(t, "WordCount")
	if got := wc.Spec(0).NumMaps; got != 512 {
		t.Fatalf("WordCount/32GB maps = %d, want 512", got)
	}
	srt := app(t, "Sort")
	if got := srt.Spec(2).NumMaps; got != 1024 {
		t.Fatalf("Sort/64GB maps = %d, want 1024", got)
	}
}

func TestWordCountExampleMatchesPaper(t *testing.T) {
	s := WordCountExample()
	if s.NumMaps != 200 || s.NumReduces != 256 {
		t.Fatalf("example = %d maps / %d reduces, paper says 200/256", s.NumMaps, s.NumReduces)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAppsAreDistinctDistributions(t *testing.T) {
	// Different applications must have clearly different mean map
	// compute times; that separation is what makes cross-app KL large
	// (Table I discussion).
	apps := Apps()
	for i := 0; i < len(apps); i++ {
		for j := i + 1; j < len(apps); j++ {
			mi := apps[i].Spec(0).MapCompute.Mean()
			mj := apps[j].Spec(0).MapCompute.Mean()
			if math.Abs(mi-mj) < 1 {
				t.Errorf("%s and %s have nearly identical map compute (%.1f vs %.1f)",
					apps[i].Name, apps[j].Name, mi, mj)
			}
		}
	}
}

func TestSortShufflesEverything(t *testing.T) {
	s := app(t, "Sort")
	if s.Spec(0).Selectivity != 1.0 {
		t.Fatal("Sort must have selectivity 1.0 (all input is shuffled)")
	}
}
