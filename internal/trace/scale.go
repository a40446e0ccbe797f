package trace

import (
	"fmt"
	"math/rand"
)

// ScaleTemplate implements the paper's stated future work (§VII): "design
// a trace-scaling technique where from the trace of a job execution on a
// small dataset, we could generate a trace that represents job processing
// of a larger dataset."
//
// The number of map tasks in Hadoop is proportional to input size (one
// task per block), so map count scales by `factor`. Reduce count is
// configured per job, not per input; it is kept unless scaleReduces is
// set. Task durations are input-size invariants (the paper's §II
// observation: duration distributions are stable across executions), so
// new task durations are bootstrap-resampled from the observed ones,
// preserving the distribution while producing the right count. Shuffle
// durations grow with per-reduce data volume: with fixed reduce count and
// `factor`× input, each reduce shuffles `factor`× the bytes, so typical
// shuffle durations scale linearly; if reduces are scaled too, per-reduce
// volume is unchanged and shuffle durations are only resampled.
func ScaleTemplate(t *Template, factor float64, scaleReduces bool, rng *rand.Rand) (*Template, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("trace: scale factor %v, need > 0", factor)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: scale input: %w", err)
	}
	out := &Template{
		AppName: t.AppName,
		Dataset: fmt.Sprintf("%s x%.2g", t.Dataset, factor),
	}
	out.NumMaps = max(1, int(float64(t.NumMaps)*factor+0.5))
	out.MapDurations = resample(t.MapDurations, out.NumMaps, rng)

	out.NumReduces = t.NumReduces
	shuffleScale := factor
	if scaleReduces && t.NumReduces > 0 {
		out.NumReduces = max(1, int(float64(t.NumReduces)*factor+0.5))
		shuffleScale = 1
	}
	if out.NumReduces > 0 {
		out.ReduceDurations = scaleAll(resample(t.ReduceDurations, out.NumReduces, rng), shuffleScale)
		nFirst := min(out.NumReduces, len(t.FirstShuffle))
		if nFirst == 0 {
			nFirst = min(out.NumReduces, 1)
		}
		out.FirstShuffle = scaleAll(resample(t.FirstShuffle, nFirst, rng), shuffleScale)
		out.TypicalShuffle = scaleAll(resample(t.TypicalShuffle, out.NumReduces, rng), shuffleScale)
	}
	return out, nil
}

// resample draws n values from xs with replacement (bootstrap). If xs is
// empty the result is all zeros.
func resample(xs []float64, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	if len(xs) == 0 {
		return out
	}
	for i := range out {
		out[i] = xs[rng.Intn(len(xs))]
	}
	return out
}

func scaleAll(xs []float64, f float64) []float64 {
	for i := range xs {
		xs[i] *= f
	}
	return xs
}
