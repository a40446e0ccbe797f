package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"simmr/pkg/simmr"
)

// sweep is sweep-grid: one operation is a bare simmr.CapacitySweepCtx
// (FIFO; no cache, telemetry, run registry, flight recorder or sinks)
// over a square grid of slot counts with one worker per CPU. Each cell
// is a short replay, so pooled re-arm, the parallel fan-out, result
// aggregation and allocation dominate — and it is the only workload
// that uses more than one core.
type sweep struct {
	e      env
	trace  *simmr.Trace
	want   []simmr.SweepPoint // a Workers: 1 sweep done in set-up
	events uint64             // per operation, summed over the cells
}

func setupSweep(e env) (workload, error) {
	w := &sweep{e: e}
	var err error
	if w.trace, err = sparseTrace("sweep", e.sz.sweepJobs, e.seed); err != nil {
		return nil, err
	}
	// SweepPoint carries no event count, so the oracle sweep attaches a
	// counting sink per cell to learn what one operation simulates.
	var mu sync.Mutex
	var sinks []*countSink
	cfg := w.config(1)
	cfg.SinkFactory = func(int, int) simmr.Sink {
		s := &countSink{}
		mu.Lock()
		sinks = append(sinks, s)
		mu.Unlock()
		return s
	}
	if w.want, err = simmr.CapacitySweepCtx(context.Background(), w.trace, cfg); err != nil {
		return nil, err
	}
	for _, s := range sinks {
		w.events += s.counters.Events
	}
	return w, nil
}

func (w *sweep) config(workers int) simmr.SweepConfig {
	return simmr.SweepConfig{
		MapSlotCounts:    w.e.sz.sweepGrid,
		ReduceSlotCounts: w.e.sz.sweepGrid,
		Workers:          workers,
	}
}

func (w *sweep) op(tr *tracer) (output, error) {
	out, _, err := w.run(tr, w.e.nproc, tr != nil)
	return out, err
}

// run is one sweep at the given worker count. With wrap every cell's
// policy is wrapped and the sum rides on the facade's span.
func (w *sweep) run(tr *tracer, workers int, wrap bool) (output, time.Duration, error) {
	cfg := w.config(workers)
	var set statsSet
	if wrap {
		cfg.PolicyFactory = func() simmr.Policy { return wrapPolicy(simmr.NewFIFO(), set.new()) }
	}
	out := output{events: w.events}
	var err error
	start := time.Now()
	id := tr.do("simmr.CapacitySweepCtx", func() {
		out.points, err = simmr.CapacitySweepCtx(context.Background(), w.trace, cfg)
	})
	wall := time.Since(start)
	st := set.sum()
	tr.annotate(id, "workers", workers)
	tr.annotate(id, "policy_calls", st.calls)
	tr.annotate(id, "policy_ns", st.busy().Nanoseconds())
	return out, wall, err
}

func (w *sweep) check(out output) error {
	if !slices.Equal(out.points, w.want) {
		return fmt.Errorf("sweep-grid: points differ from the Workers: 1 sweep")
	}
	return nil
}

func (w *sweep) between() error { return nil }

func (w *sweep) pin() uint64 {
	d := newDigest()
	for _, p := range w.want {
		d.u64(uint64(p.Cell))
		d.u64(uint64(p.MapSlots))
		d.u64(uint64(p.ReduceSlots))
		d.f64(p.Makespan)
		d.f64(p.MeanCompletion)
		d.f64(p.MaxCompletion)
		d.u64(uint64(p.DeadlinesMissed))
	}
	return d.Sum64()
}

func (w *sweep) target() probeTarget {
	return probeTarget{
		gen:      func() (*simmr.Trace, error) { return sparseTrace("sweep", w.e.sz.sweepJobs, w.e.seed) },
		trace:    w.trace,
		cfg:      simmr.DefaultReplayConfig(),
		policies: []simmr.Policy{simmr.NewFIFO()},
	}
}

// layers measures the fan-out: the sweep at one worker against the
// sweep at nproc, the CPU the parallel sweep left idle, and what the
// facade adds per cell over bare pooled replays of the same cells.
func (w *sweep) layers(tr *tracer, m map[string]float64, _ float64) error {
	var serial, parallel, idle, bare []float64
	for rep := 0; rep < w.e.sz.probeReps; rep++ {
		_, w1, err := w.run(tr, 1, false)
		if err != nil {
			return err
		}
		cpu0 := cpuSeconds()
		_, wn, err := w.run(tr, w.e.nproc, false)
		if err != nil {
			return err
		}
		cpu := cpuSeconds() - cpu0
		serial = append(serial, w1.Seconds())
		parallel = append(parallel, wn.Seconds())
		idle = append(idle, 1-cpu/(float64(w.e.nproc)*wn.Seconds()))

		var pool simmr.ReplayPool
		var sum time.Duration
		for _, ms := range w.e.sz.sweepGrid {
			for _, rs := range w.e.sz.sweepGrid {
				cfg := simmr.ReplayConfig{MapSlots: ms, ReduceSlots: rs, MinMapPercentCompleted: 0.05}
				start := time.Now()
				var err error
				tr.do("engine.Pool.Run", func() { _, err = pool.Run(cfg, w.trace, simmr.NewFIFO()) })
				sum += time.Since(start)
				if err != nil {
					return err
				}
			}
		}
		bare = append(bare, sum.Seconds())
	}
	cells := float64(len(w.want))
	m["parallel.speedup_at_nproc"] = median(serial) / median(parallel)
	m["parallel.idle_share"] = median(idle)
	m["simmr.sweep_overhead_ns_per_cell"] = (median(serial) - median(bare)) * 1e9 / cells
	return nil
}

func (w *sweep) close() {}
