package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestResultsFidelity is the paper-fidelity gate on a reduced grid: it
// re-runs every experiment that takes under a second, with the
// parameters cmd/experiments defaults to (seed 1), and compares what it
// renders byte for byte with the committed results/ file. Nothing in
// these files is a wall-clock value, so a difference is a change in what
// the simulator computes: explain it as an engine.SemanticsVersion bump
// and regenerate results/ with `go run ./cmd/experiments`, or fix it.
// Figures 6–8 and the heartbeat ablation (seconds to half a minute
// each) are compared the same way by CI's `results` job.
func TestResultsFidelity(t *testing.T) {
	type renderer interface{ Render(io.Writer) error }
	as := func(r renderer, err error) (renderer, error) { return r, err }
	const seed = 1
	for _, exp := range []struct {
		file string
		run  func() (renderer, error)
	}{
		{"figure1_waves_128x128.tsv", func() (renderer, error) { return as(Figure1(seed)) }},
		{"figure2_waves_64x64.tsv", func() (renderer, error) { return as(Figure2(seed)) }},
		{"figure3_duration_cdfs.tsv", func() (renderer, error) { return as(Figure3(seed)) }},
		{"table1_kl_divergence.tsv", func() (renderer, error) { return as(TableI(5, seed)) }},
		{"figure5a_accuracy_fifo.tsv", func() (renderer, error) { return as(Figure5FIFO(3, seed)) }},
		{"figure5b_accuracy_minedf.tsv", func() (renderer, error) { return as(Figure5MinEDF(3, seed)) }},
		{"figure5c_accuracy_maxedf.tsv", func() (renderer, error) { return as(Figure5MaxEDF(3, seed)) }},
		{"facebook_fit_map.tsv", func() (renderer, error) { return as(FacebookFit("map", 20000, seed)) }},
		{"facebook_fit_reduce.tsv", func() (renderer, error) { return as(FacebookFit("reduce", 20000, seed)) }},
		{"ablation_shuffle_model.tsv", func() (renderer, error) { return as(AblationShuffleModel(seed)) }},
		{"ablation_minedf_estimator.tsv", func() (renderer, error) { return as(AblationMinEDFEstimator(50, seed)) }},
		{"ablation_preemption.tsv", func() (renderer, error) { return as(AblationPreemption(40, seed)) }},
		{"workload_validation.tsv", func() (renderer, error) { return as(WorkloadValidation(30, seed)) }},
		{"delay_scheduling_study.tsv", func() (renderer, error) { return as(DelayStudy(24, seed)) }},
	} {
		t.Run(exp.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results", exp.file))
			if err != nil {
				t.Fatal(err)
			}
			res, err := exp.run()
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := res.Render(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("rendered output differs from the committed results/%s:\n--- got ---\n%s", exp.file, got.Bytes())
			}
		})
	}
}
