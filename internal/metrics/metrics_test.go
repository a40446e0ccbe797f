package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRelativeDeadlineExceeded(t *testing.T) {
	jobs := []DeadlineObservation{
		{RelCompletion: 150, RelDeadline: 100}, // exceeded by 0.5
		{RelCompletion: 80, RelDeadline: 100},  // met
		{RelCompletion: 300, RelDeadline: 100}, // exceeded by 2.0
		{RelCompletion: 50, RelDeadline: 0},    // no deadline: skipped
	}
	got := RelativeDeadlineExceeded(jobs)
	if math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("utility = %v, want 2.5", got)
	}
	if RelativeDeadlineExceeded(nil) != 0 {
		t.Fatal("empty set should be 0")
	}
}

func TestRelativeDeadlineExceededNonNegativeProperty(t *testing.T) {
	prop := func(raw [][2]float64) bool {
		var jobs []DeadlineObservation
		for _, r := range raw {
			c, d := math.Abs(r[0]), math.Abs(r[1])
			if math.IsNaN(c) || math.IsNaN(d) || math.IsInf(c, 0) || math.IsInf(d, 0) {
				continue
			}
			jobs = append(jobs, DeadlineObservation{RelCompletion: c, RelDeadline: d})
		}
		return RelativeDeadlineExceeded(jobs) >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorPcts(t *testing.T) {
	if got := RelativeErrorPct(95, 100); got != 5 {
		t.Fatalf("rel err = %v", got)
	}
	if got := RelativeErrorPct(105, 100); got != 5 {
		t.Fatalf("rel err = %v", got)
	}
	if got := SignedErrorPct(95, 100); got != -5 {
		t.Fatalf("signed err = %v", got)
	}
	if !math.IsInf(RelativeErrorPct(5, 0), 1) {
		t.Fatal("zero actual should be +Inf")
	}
	if !math.IsInf(SignedErrorPct(5, 0), 1) {
		t.Fatal("zero actual should be +Inf")
	}
}

func TestSummarizeErrors(t *testing.T) {
	s := SummarizeErrors([]float64{-2, 4, 6})
	if s.N != 3 || s.AvgPct != 4 || s.MaxPct != 6 {
		t.Fatalf("summary = %+v", s)
	}
	if z := SummarizeErrors(nil); z.N != 0 || z.AvgPct != 0 {
		t.Fatalf("empty summary: %+v", z)
	}
}

func TestTimeline(t *testing.T) {
	maps := []Interval{{0, 10}, {0, 10}, {10, 20}}
	shuffles := []Interval{{5, 15}}
	reduces := []Interval{{15, 18}}
	pts := Timeline(maps, shuffles, reduces, 20, 5)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	// t=0: 2 maps; t=5: 2 maps + 1 shuffle; t=10: 1 map, 1 shuffle;
	// t=15: 1 map, 1 reduce; t=20: nothing.
	checks := []struct{ i, m, s, r int }{
		{0, 2, 0, 0}, {1, 2, 1, 0}, {2, 1, 1, 0}, {3, 1, 0, 1}, {4, 0, 0, 0},
	}
	for _, c := range checks {
		p := pts[c.i]
		if p.Map != c.m || p.Shuffle != c.s || p.Reduce != c.r {
			t.Fatalf("t=%v: got (%d,%d,%d), want (%d,%d,%d)",
				p.T, p.Map, p.Shuffle, p.Reduce, c.m, c.s, c.r)
		}
	}
	if Timeline(nil, nil, nil, 0, 1) != nil {
		t.Fatal("zero horizon should be nil")
	}
	if Timeline(nil, nil, nil, 10, 0) != nil {
		t.Fatal("zero step should be nil")
	}
}

func TestPeakConcurrency(t *testing.T) {
	ivs := []Interval{{0, 10}, {5, 15}, {9, 12}, {20, 25}}
	if got := PeakConcurrency(ivs); got != 3 {
		t.Fatalf("peak = %d, want 3", got)
	}
	// Touching intervals do not overlap: end==start.
	touch := []Interval{{0, 5}, {5, 10}}
	if got := PeakConcurrency(touch); got != 1 {
		t.Fatalf("touching peak = %d, want 1", got)
	}
	if PeakConcurrency(nil) != 0 {
		t.Fatal("empty peak should be 0")
	}
}

func TestWaves(t *testing.T) {
	// 8 tasks at peak concurrency 2 -> 4 waves.
	var ivs []Interval
	for w := 0; w < 4; w++ {
		start := float64(w * 10)
		ivs = append(ivs, Interval{start, start + 10}, Interval{start, start + 10})
	}
	if got := Waves(ivs); got != 4 {
		t.Fatalf("waves = %d, want 4", got)
	}
	if Waves(nil) != 0 {
		t.Fatal("no intervals -> no waves")
	}
}

// RelativeDeadlineExceeded is the paper's utility function: over the set
// Θ of jobs whose deadline was exceeded, Σ (T_J − D_J)/D_J, where T_J is
// the completion time and D_J the deadline, both measured relative to
// the job's arrival. Lower is better.
//
// Each element of jobs supplies (finish − arrival) and
// (deadline − arrival); jobs with no deadline (relDeadline <= 0) are
// skipped.
func RelativeDeadlineExceeded(jobs []DeadlineObservation) float64 {
	var sum float64
	for _, j := range jobs {
		sum += DeadlineExcess(j.RelCompletion, j.RelDeadline)
	}
	return sum
}

// DeadlineObservation is one job's completion and deadline, both
// relative to its arrival.
type DeadlineObservation struct {
	RelCompletion float64
	RelDeadline   float64
}
