package experiments

import (
	"bytes"
	"strings"
	"testing"

	"simmr/internal/model"
	"simmr/internal/workload"
)

func TestFigure5FIFOAccuracyShape(t *testing.T) {
	r, err := Figure5FIFO(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 6 {
		t.Fatalf("entries = %d, want 6 apps", len(r.Entries))
	}
	// Paper: SimMR within 2.7% avg / 6.6% max. Allow modest slack.
	if r.SimMRSummary.AvgPct > 5 {
		t.Errorf("SimMR avg error %.1f%% exceeds 5%%", r.SimMRSummary.AvgPct)
	}
	if r.SimMRSummary.MaxPct > 10 {
		t.Errorf("SimMR max error %.1f%% exceeds 10%%", r.SimMRSummary.MaxPct)
	}
	// Paper: Mumak error much larger (37% avg) and underestimating.
	if r.MumakSummary.AvgPct < 2*r.SimMRSummary.AvgPct {
		t.Errorf("Mumak avg error %.1f%% should dwarf SimMR's %.1f%%",
			r.MumakSummary.AvgPct, r.SimMRSummary.AvgPct)
	}
	under := 0
	for _, e := range r.Entries {
		if e.MumakErrPct < 0 {
			under++
		}
	}
	if under < 5 {
		t.Errorf("Mumak should underestimate nearly all apps; only %d/6 negative", under)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mumak_err_pct") {
		t.Fatal("FIFO render missing Mumak columns")
	}
}

func TestFigure5MinEDFAccuracy(t *testing.T) {
	r, err := Figure5MinEDF(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 1.1% avg / 2.7% max for MinEDF. Allow slack; the shape is
	// "SimMR replays deadline-driven schedules with high fidelity".
	if r.SimMRSummary.AvgPct > 6 {
		t.Errorf("MinEDF avg error %.1f%% too large", r.SimMRSummary.AvgPct)
	}
	if r.MumakSummary.N != 0 {
		t.Fatal("MinEDF panel should not include Mumak")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "mumak") {
		t.Fatal("MinEDF render should not mention Mumak")
	}
}

func TestFigure5MaxEDFAccuracy(t *testing.T) {
	r, err := Figure5MaxEDF(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.SimMRSummary.AvgPct > 6 {
		t.Errorf("MaxEDF avg error %.1f%% too large", r.SimMRSummary.AvgPct)
	}
}

func TestFigure5RejectsZeroRuns(t *testing.T) {
	if _, err := Figure5FIFO(0, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestValidateBoundsModel(t *testing.T) {
	rows, err := ValidateBoundsModel(13)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.WithinBounds {
			t.Errorf("%s: actual %.1f outside model bounds [%.1f, %.1f]",
				r.App, r.Actual, r.Low, r.Up)
		}
	}
}

func TestFigure6SpeedShape(t *testing.T) {
	// Small version for tests: 60 jobs, two prefixes.
	r, err := Figure6(60, []int{20, 60}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	last := r.Points[len(r.Points)-1]
	// Mumak must process many more events; wall-clock speedup follows.
	if last.MumakEvents < 10*last.SimMREvents {
		t.Errorf("Mumak events %d should dwarf SimMR events %d",
			last.MumakEvents, last.SimMREvents)
	}
	if last.MumakSeconds <= last.SimMRSeconds {
		t.Errorf("Mumak (%.4fs) should be slower than SimMR (%.4fs)",
			last.MumakSeconds, last.SimMRSeconds)
	}
	if r.SerialRuntimeHours <= 0 {
		t.Error("serial runtime not computed")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "jobs\tsimmr_s") {
		t.Fatal("render missing header")
	}
}

func TestFigure6Validation(t *testing.T) {
	if _, err := Figure6(0, nil, 1); err == nil {
		t.Fatal("zero jobs should fail")
	}
	if _, err := Figure6(10, []int{100}, 1); err == nil {
		t.Fatal("out-of-range prefix should fail")
	}
}

func TestFacebookFitLogNormalWins(t *testing.T) {
	for _, phase := range []string{"map", "reduce"} {
		r, err := FacebookFit(phase, 5000, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !r.BestIsLogNormal {
			t.Errorf("%s: best fit should be LogNormal; got %s (KS %.4f)",
				phase, r.Entries[0].Family, r.Entries[0].KS)
		}
		if len(r.Entries) < 4 {
			t.Errorf("%s: only %d families fitted", phase, len(r.Entries))
		}
		var buf bytes.Buffer
		if err := r.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "family\tks") {
			t.Fatal("render missing header")
		}
	}
}

func TestFacebookFitValidation(t *testing.T) {
	if _, err := FacebookFit("map", 10, 1); err == nil {
		t.Fatal("tiny sample should fail")
	}
	if _, err := FacebookFit("bogus", 1000, 1); err == nil {
		t.Fatal("unknown phase should fail")
	}
}

// ModelValidation cross-checks the ARIA bounds model against the
// testbed: for each application the measured completion time must fall
// within (or near) the model's [low, up] bounds computed from its own
// profile. This supports the §V-A machinery MinEDF relies on.
type ModelValidation struct {
	App             string
	Actual, Low, Up float64
	WithinBounds    bool
}

// ValidateBoundsModel runs each application once and evaluates the
// bounds at the testbed allocation.
func ValidateBoundsModel(seed int64) ([]ModelValidation, error) {
	var out []ModelValidation
	cfgEng := EngineConfig()
	for _, app := range workload.Apps() {
		spec := app.Spec(0)
		tpl, actual, err := profileSpec(TestbedConfig(seed), spec)
		if err != nil {
			return nil, err
		}
		b := model.JobBounds(tpl.Profile(), cfgEng.MapSlots, cfgEng.ReduceSlots)
		out = append(out, ModelValidation{
			App: app.Name, Actual: actual, Low: b.Low, Up: b.Up,
			// The greedy-bound theorem applies per stage; composed
			// bounds carry small slack, so allow 5% at the edges.
			WithinBounds: actual >= b.Low*0.95 && actual <= b.Up*1.05,
		})
	}
	return out, nil
}
