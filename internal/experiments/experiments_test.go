package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The experiment tests assert the paper's qualitative shapes (§4 of
// DESIGN.md) with small repetition counts; cmd/experiments runs the
// full-size versions.

func TestFigure1TwoWaves(t *testing.T) {
	r, err := Figure1(1)
	if err != nil {
		t.Fatal(err)
	}
	// 200 maps / 128 slots -> 2 waves; 256 reduces / 128 slots -> 2 waves.
	if r.MapWaves != 2 {
		t.Errorf("map waves = %d, want 2", r.MapWaves)
	}
	if r.ReduceWaves != 2 {
		t.Errorf("reduce waves = %d, want 2", r.ReduceWaves)
	}
	if len(r.Points) == 0 {
		t.Fatal("no timeline points")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "map waves: 2") {
		t.Fatalf("render missing summary: %s", buf.String()[:200])
	}
}

func TestFigure2FourWaves(t *testing.T) {
	r, err := Figure2(1)
	if err != nil {
		t.Fatal(err)
	}
	// 200 maps / 64 slots -> 4 waves; 256 reduces / 64 slots -> 4 waves.
	if r.MapWaves != 4 {
		t.Errorf("map waves = %d, want 4", r.MapWaves)
	}
	if r.ReduceWaves != 4 {
		t.Errorf("reduce waves = %d, want 4", r.ReduceWaves)
	}
	// Fewer slots -> longer completion than Figure 1.
	r1, err := Figure1(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completion <= r1.Completion {
		t.Errorf("64x64 completion %v should exceed 128x128 completion %v",
			r.Completion, r1.Completion)
	}
}

func TestFigure1ShuffleOverlapsMapStage(t *testing.T) {
	r, err := Figure1(1)
	if err != nil {
		t.Fatal(err)
	}
	// At some sample before map stage end, both maps and shuffles active
	// (the overlap visible in the paper's Figure 1).
	overlap := false
	for _, p := range r.Points {
		if p.T < r.MapStageEnd && p.Map > 0 && p.Shuffle > 0 {
			overlap = true
			break
		}
	}
	if !overlap {
		t.Fatal("no map/shuffle overlap observed")
	}
}

func TestFigure3DistributionsInvariant(t *testing.T) {
	r, err := Figure3(7)
	if err != nil {
		t.Fatal(err)
	}
	// The whole point: duration distributions barely move across
	// allocations.
	if r.KSMap > 0.15 {
		t.Errorf("map KS %.3f too large; distributions not invariant", r.KSMap)
	}
	if r.KSReduce > 0.15 {
		t.Errorf("reduce KS %.3f too large", r.KSReduce)
	}
	if r.KSShuffle > 0.30 {
		t.Errorf("shuffle KS %.3f too large", r.KSShuffle)
	}
	for i := range r.Allocations {
		if len(r.MapCDF[i]) == 0 || len(r.ShuffleCDF[i]) == 0 || len(r.ReduceCDF[i]) == 0 {
			t.Fatalf("allocation %d missing CDFs", i)
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "## shuffle task durations") {
		t.Fatal("render missing shuffle block")
	}
}

func TestTableIWithinAppKLSmall(t *testing.T) {
	r, err := TableI(2, 11) // 2 executions per app for test speed
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 apps", len(r.Rows))
	}
	if !r.WithinBelowCross() {
		t.Errorf("within-app KL should be below cross-app KL\nrows: %+v\ncross: %+v %+v %+v",
			r.Rows, r.CrossMap, r.CrossShuffle, r.CrossReduce)
	}
	for _, row := range r.Rows {
		if row.Map.Avg < 0 || row.Map.Avg > 3 {
			t.Errorf("%s: within-app map KL %.3f outside plausible range", row.App, row.Map.Avg)
		}
	}
	if r.CrossMap.Avg < 1 {
		t.Errorf("cross-app map KL %.3f suspiciously small", r.CrossMap.Avg)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CROSS-APP") {
		t.Fatal("render missing cross-app row")
	}
}

func TestTableIRejectsSingleExecution(t *testing.T) {
	if _, err := TableI(1, 1); err == nil {
		t.Fatal("expected error")
	}
}

// WithinBelowCross reports whether every within-app average KL is below
// the cross-app average for that phase — the paper's qualitative claim
// ("these values are much higher than the KL values for executions of
// the same application"). We compare against the cross-app average
// rather than its minimum: the smallest profiled job (TF-IDF, 64 maps)
// carries enough sampling noise that a single adjacent application pair
// (WordCount/TF-IDF map profiles overlap) can undercut it, whereas the
// aggregate separation is orders of magnitude.
func (r *TableIResult) WithinBelowCross() bool {
	for _, row := range r.Rows {
		if row.Map.Avg >= r.CrossMap.Avg || row.Reduce.Avg >= r.CrossReduce.Avg ||
			row.Shuffle.Avg >= r.CrossShuffle.Avg {
			return false
		}
	}
	return true
}
