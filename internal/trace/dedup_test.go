package trace

import (
	"math"
	"testing"
)

// sharedJobsTrace builds a trace whose jobs all share k templates —
// the deduplicated shape the per-unique-template stats paths target.
func sharedJobsTrace(jobs, k int) *Trace {
	pool := make([]*Template, k)
	for i := range pool {
		pool[i] = &Template{
			AppName:         "app",
			NumMaps:         2,
			NumReduces:      1,
			MapDurations:    []float64{10 + float64(i), 20 + float64(i)},
			ReduceDurations: []float64{5 + float64(i)},
			FirstShuffle:    []float64{1},
			TypicalShuffle:  []float64{2},
		}
	}
	tr := &Trace{Name: "shared"}
	for i := 0; i < jobs; i++ {
		tr.Jobs = append(tr.Jobs, &Job{ID: i, Arrival: float64(i), Template: pool[i%k]})
	}
	return tr
}

// TestStatsDedupMatchesUnshared pins that summing once per unique
// template and weighting by job count gives the same totals as walking
// every job's arrays (which Clone's unshared copy still does).
func TestStatsDedupMatchesUnshared(t *testing.T) {
	tr := sharedJobsTrace(90, 6)
	unshared := tr.Clone() // deep copy: every job gets its own template
	a, b := tr.Stats(), unshared.Stats()
	if a.Jobs != b.Jobs || a.TotalMaps != b.TotalMaps || a.TotalReduces != b.TotalReduces {
		t.Fatalf("counts diverged: %+v vs %+v", a, b)
	}
	if math.Abs(a.SerialRuntime-b.SerialRuntime) > 1e-9*math.Abs(b.SerialRuntime) {
		t.Fatalf("serial runtime %v vs %v", a.SerialRuntime, b.SerialRuntime)
	}
	for _, name := range b.AppNames {
		sa, sb := a.Apps[name], b.Apps[name]
		if sa.Jobs != sb.Jobs || sa.Maps != sb.Maps || sa.Reduces != sb.Reduces {
			t.Fatalf("app %s counts: %+v vs %+v", name, sa, sb)
		}
		if math.Abs(sa.MeanMapDur-sb.MeanMapDur) > 1e-9 ||
			math.Abs(sa.MeanReduceDur-sb.MeanReduceDur) > 1e-9 ||
			math.Abs(sa.MeanShuffleDur-sb.MeanShuffleDur) > 1e-9 {
			t.Fatalf("app %s means diverged: %+v vs %+v", name, sa, sb)
		}
	}
}

func TestSerialRuntimeShared(t *testing.T) {
	tr := sharedJobsTrace(40, 4)
	want := tr.Clone().SerialRuntime()
	if got := tr.SerialRuntime(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("SerialRuntime = %v, want %v", got, want)
	}
}
