// Package metrics computes the evaluation quantities of the paper:
// the relative-deadline-exceeded utility function of §V-A, simulator
// accuracy errors (Figure 5), and task-progress timelines
// (Figures 1–2).
package metrics

import (
	"math"
	"sort"
)

// DeadlineExcess is one job's term of the paper's utility function,
// the relative deadline exceeded: over the set Θ of jobs whose deadline
// was exceeded, Σ (T_J − D_J)/D_J, where T_J is the completion time and
// D_J the deadline, both measured relative to the job's arrival (lower
// is better). The term is (T_J − D_J)/D_J when the job has a deadline
// (relDeadline > 0) and exceeded it, else 0; callers fold it over the
// outcomes they already hold.
func DeadlineExcess(relCompletion, relDeadline float64) float64 {
	if relDeadline <= 0 || relCompletion <= relDeadline {
		return 0
	}
	return (relCompletion - relDeadline) / relDeadline
}

// RelativeErrorPct returns 100·|simulated − actual|/actual, the per-job
// accuracy metric behind Figure 5 ("completion times of the simulated
// jobs are within 5% of the original ones").
func RelativeErrorPct(simulated, actual float64) float64 {
	if actual == 0 {
		return math.Inf(1)
	}
	return 100 * math.Abs(simulated-actual) / actual
}

// SignedErrorPct returns 100·(simulated − actual)/actual; negative means
// the simulator underestimates (Mumak's characteristic failure mode).
func SignedErrorPct(simulated, actual float64) float64 {
	if actual == 0 {
		return math.Inf(1)
	}
	return 100 * (simulated - actual) / actual
}

// ErrorSummary aggregates per-job errors the way §IV-D reports them:
// average and maximum absolute error.
type ErrorSummary struct {
	AvgPct, MaxPct float64
	N              int
}

// SummarizeErrors collects per-job absolute errors.
func SummarizeErrors(errsPct []float64) ErrorSummary {
	s := ErrorSummary{N: len(errsPct)}
	for _, e := range errsPct {
		a := math.Abs(e)
		s.AvgPct += a
		if a > s.MaxPct {
			s.MaxPct = a
		}
	}
	if s.N > 0 {
		s.AvgPct /= float64(s.N)
	}
	return s
}

// Interval is a half-open task activity interval [Start, End).
type Interval struct {
	Start, End float64
}

// TimelinePoint is one sample of Figure 1/2's stacked progress plot:
// how many tasks were in each phase at time T.
type TimelinePoint struct {
	T                    float64
	Map, Shuffle, Reduce int
}

// Timeline samples concurrent task counts for the three phases at the
// given resolution (seconds per sample) across [0, horizon]. It renders
// the paper's Figure 1/2 series from recorded task spans.
func Timeline(maps, shuffles, reduces []Interval, horizon, step float64) []TimelinePoint {
	if step <= 0 || horizon <= 0 {
		return nil
	}
	n := int(horizon/step) + 1
	pts := make([]TimelinePoint, n)
	for i := range pts {
		t := float64(i) * step
		pts[i] = TimelinePoint{
			T:       t,
			Map:     countActive(maps, t),
			Shuffle: countActive(shuffles, t),
			Reduce:  countActive(reduces, t),
		}
	}
	return pts
}

func countActive(ivs []Interval, t float64) int {
	n := 0
	for _, iv := range ivs {
		if iv.Start <= t && t < iv.End {
			n++
		}
	}
	return n
}

// Waves counts the distinct execution waves in a set of task intervals:
// the maximum nesting depth is the slots used; the wave count is
// ceil(tasks/slots) under the paper's wave model. We measure it
// empirically as the maximum number of tasks that ran strictly after
// any given task started, grouped by near-simultaneous starts.
// A simpler robust estimate used here: total tasks divided by peak
// concurrency, rounded up.
func Waves(ivs []Interval) int {
	if len(ivs) == 0 {
		return 0
	}
	peak := PeakConcurrency(ivs)
	if peak == 0 {
		return 0
	}
	return (len(ivs) + peak - 1) / peak
}

// PeakConcurrency returns the maximum number of simultaneously active
// intervals.
func PeakConcurrency(ivs []Interval) int {
	type edge struct {
		t     float64
		delta int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		edges = append(edges, edge{iv.Start, 1}, edge{iv.End, -1})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return edges[a].delta < edges[b].delta // ends before starts at ties
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
