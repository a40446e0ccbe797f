package attr_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"simmr/internal/attr"
	"simmr/internal/engine"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTrace is the explain-report reference workload: three jobs on a
// 2-map/1-reduce-slot cluster under FIFO, sized so every report section
// renders — admission and reduce-slot contention with hand-off blame, a
// missed deadline with a root cause, a map-only job, and a non-trivial
// critical path.
func goldenTrace() *trace.Trace {
	tr := &trace.Trace{Jobs: []*trace.Job{
		mkJob(0, 0, 25, []float64{10, 10, 10}, []float64{8}),
		mkJob(1, 1, 100, []float64{5, 5}, []float64{4}),
		mkJob(2, 2, 0, []float64{6}, nil),
	}}
	tr.Jobs[0].Name = "sort"
	tr.Jobs[1].Name = "grep"
	tr.Jobs[2].Name = "index"
	return tr
}

// TestExplainReportGolden pins the rendered explain report — TSV and
// JSON — byte-for-byte. Regenerate with
//
//	go test ./internal/attr/ -run Golden -update
func TestExplainReportGolden(t *testing.T) {
	cfg := engine.Config{MapSlots: 2, ReduceSlots: 1, MinMapPercentCompleted: 0.05}
	_, sink := runWithAttr(t, cfg, goldenTrace(), sched.FIFO{})
	rep := sink.Report()

	var tsv, js bytes.Buffer
	if err := rep.WriteTSV(&tsv, 5); err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}

	for _, g := range []struct {
		name string
		got  []byte
	}{
		{"explain.tsv", tsv.Bytes()},
		{"explain.json", js.Bytes()},
	} {
		path := filepath.Join("testdata", g.name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s missing (run with -update to create): %v", path, err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s drifted from golden; rerun with -update and review the diff\ngot:\n%s", path, g.got)
		}
	}
}

// TestOverlaySpans checks the critical-path → Chrome-overlay
// conversion: one span per step, task spans named by job/class/index,
// wait details carried through.
func TestOverlaySpans(t *testing.T) {
	cfg := engine.Config{MapSlots: 2, ReduceSlots: 1, MinMapPercentCompleted: 0.05}
	_, sink := runWithAttr(t, cfg, goldenTrace(), sched.FIFO{})
	cp := sink.Report().CriticalPath
	if len(cp) == 0 {
		t.Fatal("empty critical path")
	}
	spans := attr.OverlaySpans(cp)
	if len(spans) != len(cp) {
		t.Fatalf("%d spans for %d steps", len(spans), len(cp))
	}
	for i, sp := range spans {
		st := &cp[i]
		if sp.Cat != "critical-path" {
			t.Fatalf("span %d category %q", i, sp.Cat)
		}
		if sp.Start != st.Start || sp.End != st.End {
			t.Fatalf("span %d [%v,%v] != step [%v,%v]", i, sp.Start, sp.End, st.Start, st.End)
		}
		if sp.Detail != st.Detail {
			t.Fatalf("span %d detail %q != step detail %q", i, sp.Detail, st.Detail)
		}
		if st.Kind == attr.CPTask && sp.Name == "" {
			t.Fatalf("task span %d unnamed", i)
		}
	}
}
