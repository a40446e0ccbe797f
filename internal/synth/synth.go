// Package synth implements Synthetic TraceGen (§III-A): generating
// replayable traces from statistical workload descriptions instead of
// profiled executions. It provides
//
//   - generic distribution-driven trace generation,
//   - the paper's synthetic Facebook workload (§V-C): task durations
//     drawn from the LogNormal fits of Zaharia et al.'s published
//     production distributions — maps LN(9.9511, 1.6764), reduces
//     LN(12.375, 1.6262), scaled to the simulated cluster,
//   - the 1148-job "six months of cluster history" trace used for the
//     simulator speed comparison (§IV-E, Figure 6).
package synth

import (
	"fmt"
	"math/rand"

	"simmr/internal/stats"
	"simmr/internal/trace"
	"simmr/internal/workload"
)

// JobShape describes the statistical shape of one synthetic job class.
type JobShape struct {
	Name string
	// NumMaps / NumReduces draw task counts; Constant for fixed counts.
	NumMaps    stats.Dist
	NumReduces stats.Dist
	// Map, FirstShuffle, TypicalShuffle, Reduce are per-task duration
	// distributions. FirstShuffle may be nil, defaulting to
	// TypicalShuffle (a cold shuffle and a residual one are then
	// indistinguishable).
	Map            stats.Dist
	FirstShuffle   stats.Dist
	TypicalShuffle stats.Dist
	Reduce         stats.Dist
}

// Generate draws one job template from the shape.
func (s *JobShape) Generate(rng *rand.Rand) (*trace.Template, error) {
	if s.NumMaps == nil || s.Map == nil {
		return nil, fmt.Errorf("synth: shape %q missing map distributions", s.Name)
	}
	nm := int(s.NumMaps.Sample(rng))
	if nm < 1 {
		nm = 1
	}
	nr := 0
	if s.NumReduces != nil {
		nr = int(s.NumReduces.Sample(rng))
		if nr < 0 {
			nr = 0
		}
	}
	tpl := &trace.Template{
		AppName:      s.Name,
		NumMaps:      nm,
		NumReduces:   nr,
		MapDurations: stats.SampleN(s.Map, nm, rng),
	}
	if nr > 0 {
		if s.TypicalShuffle == nil || s.Reduce == nil {
			return nil, fmt.Errorf("synth: shape %q has reduces but no shuffle/reduce distributions", s.Name)
		}
		tpl.TypicalShuffle = stats.SampleN(s.TypicalShuffle, nr, rng)
		fs := s.FirstShuffle
		if fs == nil {
			fs = s.TypicalShuffle
		}
		tpl.FirstShuffle = stats.SampleN(fs, nr, rng)
		tpl.ReduceDurations = stats.SampleN(s.Reduce, nr, rng)
	}
	if err := tpl.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated invalid template: %w", err)
	}
	return tpl, nil
}

// GenerateTrace draws n jobs from the shape with exponential
// inter-arrival times of the given mean.
func GenerateTrace(shape *JobShape, n int, meanInterArrival float64, rng *rand.Rand) (*trace.Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("synth: n = %d", n)
	}
	tr := &trace.Trace{Name: fmt.Sprintf("synthetic-%s-%d", shape.Name, n)}
	t := 0.0
	for i := 0; i < n; i++ {
		tpl, err := shape.Generate(rng)
		if err != nil {
			return nil, err
		}
		tr.Jobs = append(tr.Jobs, &trace.Job{Arrival: t, Template: tpl})
		t += rng.ExpFloat64() * meanInterArrival
	}
	tr.Normalize()
	return tr, nil
}

// Paper §V-C: the LogNormal parameters fitted to the Facebook 2009
// production workload of Zaharia et al. The fitted values are in
// milliseconds (exp(9.95) ≈ 21 s of map work); Sample-time conversion to
// seconds happens in FacebookShape.
const (
	FacebookMapMu       = 9.9511
	FacebookMapSigma    = 1.6764
	FacebookReduceMu    = 12.375
	FacebookReduceSigma = 1.6262
)

// msDist wraps a distribution expressed in milliseconds, sampling
// seconds.
type msDist struct{ d stats.Dist }

func (m msDist) Sample(rng *rand.Rand) float64 { return m.d.Sample(rng) / 1000 }
func (m msDist) Mean() float64                 { return m.d.Mean() / 1000 }
func (m msDist) CDF(x float64) float64         { return m.d.CDF(x * 1000) }
func (m msDist) String() string                { return m.d.String() + "/ms" }

// FacebookMapDist returns the fitted map-task duration distribution in
// seconds.
func FacebookMapDist() stats.Dist {
	return msDist{stats.LogNormal{Mu: FacebookMapMu, Sigma: FacebookMapSigma}}
}

// FacebookReduceDist returns the fitted reduce-task total-duration
// distribution in seconds.
func FacebookReduceDist() stats.Dist {
	return msDist{stats.LogNormal{Mu: FacebookReduceMu, Sigma: FacebookReduceSigma}}
}

// FacebookShape builds the synthetic Facebook job class: task durations
// from the fitted LogNormals, job sizes scaled so jobs fit the
// simulated 64+64-slot cluster. The reduce-task distribution covers the
// whole reduce task (shuffle + sort + reduce in the Zaharia data); we
// split it 60/40 between shuffle and reduce phases, preserving the
// total.
func FacebookShape() *JobShape {
	mapDist := FacebookMapDist()
	redDist := FacebookReduceDist()
	return &JobShape{
		Name:    "Facebook",
		NumMaps: stats.Shifted{Base: stats.Exponential{MeanV: 80}, Shift: 1},
		// Many Facebook jobs are small; reduces fewer than maps.
		NumReduces:     stats.Shifted{Base: stats.Exponential{MeanV: 15}, Shift: 1},
		Map:            mapDist,
		TypicalShuffle: scaled{redDist, 0.6},
		FirstShuffle:   scaled{redDist, 0.3},
		Reduce:         scaled{redDist, 0.4},
	}
}

// scaled multiplies samples of a base distribution by a constant factor.
type scaled struct {
	d stats.Dist
	f float64
}

func (s scaled) Sample(rng *rand.Rand) float64 { return s.d.Sample(rng) * s.f }
func (s scaled) Mean() float64                 { return s.d.Mean() * s.f }
func (s scaled) CDF(x float64) float64         { return s.d.CDF(x / s.f) }
func (s scaled) String() string                { return fmt.Sprintf("%v*%g", s.d, s.f) }

// productionShapes builds the six application shapes of the §IV-E
// performance-evaluation workload from the profiled specs.
func productionShapes() []*JobShape {
	apps := workload.Apps()
	shapes := make([]*JobShape, len(apps))
	for i, app := range apps {
		spec := app.Spec(0)
		shapes[i] = &JobShape{
			Name: app.Name,
			// Job sizes spread around the profiled dataset size.
			NumMaps:    stats.Uniform{A: float64(spec.NumMaps) / 4, B: float64(spec.NumMaps) * 1.5},
			NumReduces: stats.Constant{V: float64(spec.NumReduces)},
			Map: stats.Shifted{
				Base:  stats.Normal{Mu: spec.MapCompute.Mean(), Sigma: spec.MapCompute.Mean() * 0.15},
				Shift: 1,
			},
			TypicalShuffle: stats.Normal{Mu: shuffleEstimate(spec), Sigma: shuffleEstimate(spec) * 0.2},
			FirstShuffle:   stats.Normal{Mu: shuffleEstimate(spec) / 2, Sigma: shuffleEstimate(spec) * 0.1},
			Reduce:         spec.ReduceCompute,
		}
	}
	return shapes
}

// ProductionTrace generates the §IV-E performance-evaluation workload:
// n jobs (the paper replays 1148) drawn from the six application
// profiles at realistic scale, back to back "without inactivity
// periods". Map counts are bootstrapped per job so job sizes vary the
// way six months of runs would.
func ProductionTrace(n int, rng *rand.Rand) (*trace.Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("synth: n = %d", n)
	}
	shapes := productionShapes()
	tr := &trace.Trace{Name: fmt.Sprintf("production-%d", n)}
	t := 0.0
	for i := 0; i < n; i++ {
		shape := shapes[rng.Intn(len(shapes))]
		tpl, err := shape.Generate(rng)
		if err != nil {
			return nil, err
		}
		tr.Jobs = append(tr.Jobs, &trace.Job{Arrival: t, Template: tpl})
		// Dense submission: the paper strips inactivity periods.
		t += rng.ExpFloat64() * 30
	}
	tr.Normalize()
	return tr, nil
}

// MultiTenantTrace generates the multi-tenant scale workload behind the
// sched_events_per_sec benchmark and the engine's scan-vs-indexed
// differential suite: n small jobs (2–6 maps, 0–2 reduces) arriving in
// one dense burst (mean inter-arrival 50 ms) with task durations long
// relative to the burst, so nearly all n jobs are concurrently active
// for most of the replay — the regime where slot allocation dominates
// simulation cost. About 70% of jobs carry deadlines, giving the EDF
// family and the preemption machinery real ordering work; the rest are
// deadline-free and exercise the +Inf sort-last path.
func MultiTenantTrace(n int, rng *rand.Rand) (*trace.Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("synth: n = %d", n)
	}
	mapDur := stats.Uniform{A: 30, B: 180}
	shuffleDur := stats.Uniform{A: 5, B: 20}
	reduceDur := stats.Uniform{A: 10, B: 40}
	tr := &trace.Trace{Name: fmt.Sprintf("multitenant-%d", n)}
	t := 0.0
	for i := 0; i < n; i++ {
		nm := 2 + rng.Intn(5)
		nr := rng.Intn(3)
		tpl := &trace.Template{
			AppName:      "tenant",
			NumMaps:      nm,
			NumReduces:   nr,
			MapDurations: stats.SampleN(mapDur, nm, rng),
		}
		if nr > 0 {
			tpl.TypicalShuffle = stats.SampleN(shuffleDur, nr, rng)
			tpl.FirstShuffle = stats.SampleN(shuffleDur, nr, rng)
			tpl.ReduceDurations = stats.SampleN(reduceDur, nr, rng)
		}
		job := &trace.Job{Arrival: t, Template: tpl}
		if rng.Float64() < 0.7 {
			job.Deadline = t + 120 + rng.Float64()*1800
		}
		tr.Jobs = append(tr.Jobs, job)
		t += rng.ExpFloat64() * 0.05
	}
	tr.Normalize()
	return tr, nil
}

// shuffleEstimate approximates a spec's typical shuffle duration from
// its per-reduce partition volume at nominal transfer rates (20 MB/s
// fetch + merge).
func shuffleEstimate(spec workload.Spec) float64 {
	est := spec.PartitionMB()/20 + spec.PartitionMB()*0.004
	if est < 0.5 {
		est = 0.5
	}
	return est
}
