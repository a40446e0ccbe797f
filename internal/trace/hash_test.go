package trace

import "testing"

// hashFixture builds a small two-job trace whose jobs share one
// template — the shape ContentHash's per-template memoization must
// handle — with duration vectors long enough to have an interior.
// Each call returns fresh Template instances: the content digest is
// memoized on the template (durations are immutable once hashed), so
// every mutated variant in these tests starts from its own fixture.
func hashFixture() *Trace {
	tpl := &Template{
		AppName: "WordCount", Dataset: "4GB",
		NumMaps: 4, NumReduces: 2,
		MapDurations:    []float64{10, 20, 30, 40},
		FirstShuffle:    []float64{5, 6},
		TypicalShuffle:  []float64{3, 4},
		ReduceDurations: []float64{7, 8},
	}
	return &Trace{
		Name: "hash-fixture",
		Jobs: []*Job{
			{ID: 0, Arrival: 0, Deadline: 100, Template: tpl},
			{ID: 1, Arrival: 5, Deadline: 200, Template: tpl},
		},
	}
}

// TestContentHashSeesInteriorDurations is the regression pin for the
// cache-keying bug: a digest that samples only the boundary entries of
// each duration vector is blind to an interior edit — a what-if
// perturbation — and lets two traces serve each other's cached results.
// ContentHash, the trace's only digest, must see that edit.
func TestContentHashSeesInteriorDurations(t *testing.T) {
	if a, b := hashFixture(), hashFixture(); a.ContentHash() != b.ContentHash() {
		t.Fatal("identical traces must hash equal")
	}
	// Perturb an interior map duration only (index 1 of 4: neither the
	// first nor the last entry) before anything digests the template.
	a, edited := hashFixture(), hashFixture()
	edited.Jobs[0].Template.MapDurations[1] *= 2
	if a.ContentHash() == edited.ContentHash() {
		t.Fatal("ContentHash blind to interior duration edit — cache keys would collide")
	}
}

// ContentHash must cover every duration column and the per-job fields.
// Job-level edits (arrival here, deadlines in the experiments) go
// through the non-memoized per-job fold, so they re-key even after the
// template digest is cached.
func TestContentHashSeesEveryColumn(t *testing.T) {
	base := hashFixture().ContentHash()
	for name, mutate := range map[string]func(*Trace){
		"first-shuffle":   func(tr *Trace) { tr.Jobs[0].Template.FirstShuffle[0]++ },
		"typical-shuffle": func(tr *Trace) { tr.Jobs[0].Template.TypicalShuffle[1]++ },
		"reduce":          func(tr *Trace) { tr.Jobs[0].Template.ReduceDurations[0]++ },
		"map":             func(tr *Trace) { tr.Jobs[0].Template.MapDurations[3]++ },
		"arrival":         func(tr *Trace) { tr.Jobs[1].Arrival++ },
		"deadline":        func(tr *Trace) { tr.Jobs[1].Deadline++ },
	} {
		tr := hashFixture()
		mutate(tr)
		if tr.ContentHash() == base {
			t.Errorf("%s edit did not change ContentHash", name)
		}
	}
}

// Job-level fields must re-key even after the template digest memo is
// warm: the deadline experiments mutate deadlines in place between
// cached replays of one trace.
func TestContentHashJobFieldsBypassMemo(t *testing.T) {
	tr := hashFixture()
	before := tr.ContentHash() // warms the template digest memo
	tr.Jobs[0].Deadline += 17
	if tr.ContentHash() == before {
		t.Fatal("deadline edit invisible after template memo warmed")
	}
}

// The per-template digest folds by content: the same content reached
// through distinct template pointers must digest identically, or
// structurally equal traces (one deduped, one not) would miss each
// other's cache entries.
func TestContentHashIgnoresTemplateSharing(t *testing.T) {
	shared := hashFixture()
	split := hashFixture()
	split.Jobs[1].Template = hashFixture().Jobs[0].Template // equal content, distinct pointer
	if shared.ContentHash() != split.ContentHash() {
		t.Fatal("template sharing changed ContentHash; digest must be content-transparent")
	}
}
