package synth

import (
	"fmt"
	"math/rand"

	"simmr/internal/stats"
	"simmr/internal/trace"
)

// WeightedShape pairs a job shape with a relative sampling weight.
type WeightedShape struct {
	Shape  *JobShape
	Weight float64
}

// StreamConfig describes a streaming synthesis run: how many jobs to
// emit, at what arrival rate, from which shapes, and how much template
// sharing the stream should exhibit.
type StreamConfig struct {
	// Name becomes the trace name of whatever the stream is collected
	// or packed into.
	Name string
	// Jobs is the total number of jobs the stream yields.
	Jobs int
	// MeanInterArrival is the mean of the exponential inter-arrival
	// gap, in seconds.
	MeanInterArrival float64
	// TemplatePool, when > 0, pre-generates that many templates (drawn
	// from Shapes) and has every job reference one of them — the
	// template-sharing regime the binary trace store deduplicates.
	// When 0 every job gets a freshly drawn template.
	TemplatePool int
	// DeadlineFraction in [0,1] is the probability a job carries a
	// deadline; DeadlineSlack is the mean slack beyond arrival, in
	// seconds (deadline = arrival + slack·(0.5 + U[0,1))).
	DeadlineFraction float64
	DeadlineSlack    float64
	// Shapes are the job classes, sampled by weight. Weights need not
	// sum to 1; non-positive weights are rejected.
	Shapes []WeightedShape
}

// Stream yields synthetic jobs one at a time, in arrival order with
// sequential IDs, holding only its template pool in memory — never the
// full trace. It satisfies tracebin.JobSource, so
//
//	w, _ := tracebin.NewWriter(f, cfg.Name)
//	w.AddAll(stream)
//	w.Close()
//
// packs a million-job trace without a million-job allocation, and the
// same stream feeds engine replays directly.
type Stream struct {
	cfg    StreamConfig
	rng    *rand.Rand
	pool   []*trace.Template
	cumW   []float64 // cumulative shape weights for roulette draw
	totalW float64
	next   int
	t      float64
}

// NewStream validates the config and pre-generates the template pool.
func NewStream(cfg StreamConfig, rng *rand.Rand) (*Stream, error) {
	if cfg.Jobs <= 0 {
		return nil, fmt.Errorf("synth: stream jobs = %d", cfg.Jobs)
	}
	if cfg.MeanInterArrival < 0 {
		return nil, fmt.Errorf("synth: stream mean inter-arrival = %v", cfg.MeanInterArrival)
	}
	if len(cfg.Shapes) == 0 {
		return nil, fmt.Errorf("synth: stream has no shapes")
	}
	if cfg.DeadlineFraction < 0 || cfg.DeadlineFraction > 1 {
		return nil, fmt.Errorf("synth: deadline fraction %v outside [0,1]", cfg.DeadlineFraction)
	}
	if cfg.DeadlineFraction > 0 && cfg.DeadlineSlack <= 0 {
		return nil, fmt.Errorf("synth: deadline fraction %v needs positive slack, got %v",
			cfg.DeadlineFraction, cfg.DeadlineSlack)
	}
	s := &Stream{cfg: cfg, rng: rng, cumW: make([]float64, len(cfg.Shapes))}
	for i, ws := range cfg.Shapes {
		if ws.Shape == nil || ws.Weight <= 0 {
			return nil, fmt.Errorf("synth: shape %d is nil or has weight %v", i, ws.Weight)
		}
		s.totalW += ws.Weight
		s.cumW[i] = s.totalW
	}
	if cfg.TemplatePool < 0 {
		return nil, fmt.Errorf("synth: template pool = %d", cfg.TemplatePool)
	}
	if cfg.TemplatePool > 0 {
		s.pool = make([]*trace.Template, cfg.TemplatePool)
		for i := range s.pool {
			tpl, err := s.drawShape().Generate(rng)
			if err != nil {
				return nil, err
			}
			s.pool[i] = tpl
		}
	}
	return s, nil
}

// drawShape samples a shape by weight.
func (s *Stream) drawShape() *JobShape {
	x := s.rng.Float64() * s.totalW
	for i, c := range s.cumW {
		if x < c {
			return s.cfg.Shapes[i].Shape
		}
	}
	return s.cfg.Shapes[len(s.cfg.Shapes)-1].Shape
}

// Next yields the next job, or (nil, false, nil) once cfg.Jobs have
// been emitted. Arrivals are nondecreasing and IDs sequential from 0,
// matching what trace.Normalize would produce — streamed jobs replay
// and pack without a materialized trace.
func (s *Stream) Next() (*trace.Job, bool, error) {
	if s.next >= s.cfg.Jobs {
		return nil, false, nil
	}
	var tpl *trace.Template
	if len(s.pool) > 0 {
		tpl = s.pool[s.rng.Intn(len(s.pool))]
	} else {
		var err error
		tpl, err = s.drawShape().Generate(s.rng)
		if err != nil {
			return nil, false, err
		}
	}
	j := &trace.Job{
		ID:       s.next,
		Name:     tpl.AppName,
		Arrival:  s.t,
		Template: tpl,
	}
	if s.cfg.DeadlineFraction > 0 && s.rng.Float64() < s.cfg.DeadlineFraction {
		j.Deadline = j.Arrival + s.cfg.DeadlineSlack*(0.5+s.rng.Float64())
	}
	s.next++
	s.t += s.rng.ExpFloat64() * s.cfg.MeanInterArrival
	return j, true, nil
}

// Name returns the configured trace name.
func (s *Stream) Name() string { return s.cfg.Name }

// Collect materializes the remainder of the stream into a trace — the
// small-n convenience path; for big traces feed the stream to a
// tracebin.Writer or an engine batch instead.
func (s *Stream) Collect() (*trace.Trace, error) {
	tr := &trace.Trace{Name: s.cfg.Name, Jobs: make([]*trace.Job, 0, s.cfg.Jobs-s.next)}
	for {
		j, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		tr.Jobs = append(tr.Jobs, j)
	}
	if len(tr.Jobs) == 0 {
		return nil, trace.ErrEmptyTrace
	}
	return tr, nil
}

// ProductionShapes returns the six application shapes behind
// ProductionTrace, for use as a streaming shape set.
func ProductionShapes() []WeightedShape {
	shapes := productionShapes()
	out := make([]WeightedShape, len(shapes))
	for i, sh := range shapes {
		out[i] = WeightedShape{Shape: sh, Weight: 1}
	}
	return out
}

// MultiTenantShape returns the small-job shape of MultiTenantTrace as
// a streaming shape — 2–6 maps, 0–2 reduces, durations long relative
// to a dense submission burst. (Task counts draw from continuous
// uniforms and floor in JobShape.Generate, matching rng.Intn ranges.)
func MultiTenantShape() *JobShape {
	return &JobShape{
		Name:           "tenant",
		NumMaps:        stats.Uniform{A: 2, B: 7},
		NumReduces:     stats.Uniform{A: 0, B: 3},
		Map:            stats.Uniform{A: 30, B: 180},
		TypicalShuffle: stats.Uniform{A: 5, B: 20},
		FirstShuffle:   stats.Uniform{A: 5, B: 20},
		Reduce:         stats.Uniform{A: 10, B: 40},
	}
}
