package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"simmr/pkg/simmr"
)

// sessionSlots are the square cluster sizes a session compares.
var sessionSlots = []int{32, 64, 96, 128}

// session is session-observed: one operation is a simmr.ReplayBatchCfg
// of 16 specs with everything a long-lived session switches on — the
// result cache (memory and disk), telemetry, the run registry, flight
// recorders and a metrics sink per spec. Twelve specs (three policies × four
// cluster sizes on the base trace) repeat every operation and hit the
// cache; four replay a variant of the trace no operation has seen, so
// they miss: engine with sinks → encode → put.
type session struct {
	e    env
	base *simmr.Trace
	want []uint64 // the 12 repeating specs, each from a fresh replay
	// wantNovel are the FIFO digests per cluster size: a variant only
	// moves deadlines, which FIFO never reads, so its results must
	// equal the base trace's.
	wantNovel []uint64

	cache *simmr.Cache
	bcfg  simmr.BatchConfig
	dir   string

	ops     int          // operations run so far
	variant *simmr.Trace // what the next operation's four novel specs replay
	keep    map[string]bool
	stats   simmr.CacheStats // after the last operation

	// Sums over every operation but the first, which starts cold.
	hits, lookups uint64
	diskBytes     []float64
}

func setupSession(e env) (workload, error) {
	w := &session{e: e, dir: filepath.Join(e.outDir, "cache")}
	var err error
	if w.base, err = sparseTrace("session", e.sz.sessionJobs, e.seed); err != nil {
		return nil, err
	}
	for _, p := range paperPolicies() {
		for _, slots := range sessionSlots {
			res, err := simmr.Replay(sessionConfig(slots), w.base, p)
			if err != nil {
				return nil, err
			}
			w.want = append(w.want, resultDigest(res))
		}
	}
	w.wantNovel = w.want[:len(sessionSlots)] // paperPolicies()[0] is FIFO

	// Every set-up starts the cache cold.
	if err := os.RemoveAll(w.dir); err != nil {
		return nil, err
	}
	tel := simmr.NewTelemetry()
	// The cache cmd/simmr builds for `-cache-dir DIR` alone.
	w.cache = simmr.NewCache(simmr.CacheOptions{Dir: w.dir, Telemetry: tel})
	w.bcfg = simmr.BatchConfig{
		Workers:   e.nproc,
		Telemetry: tel,
		Runs:      simmr.NewRunRegistry(0),
		Flight:    -1,
		Cache:     w.cache,
	}
	w.nextVariant()
	return w, nil
}

func sessionConfig(slots int) simmr.ReplayConfig {
	return simmr.ReplayConfig{MapSlots: slots, ReduceSlots: slots, MinMapPercentCompleted: 0.05}
}

// nextVariant builds the trace the next operation's novel specs
// replay: the base jobs with every relative deadline stretched by a
// factor no earlier operation used. Templates are shared with the base.
func (w *session) nextVariant() {
	f := 1 + float64(w.ops+1)/4096
	jobs := make([]*simmr.Job, len(w.base.Jobs))
	for i, j := range w.base.Jobs {
		c := *j
		if c.HasDeadline() {
			c.Deadline = c.Arrival + c.RelativeDeadline()*f
		}
		jobs[i] = &c
	}
	w.variant = &simmr.Trace{Name: fmt.Sprintf("session-v%d", w.ops), Jobs: jobs}
}

func (w *session) op(tr *tracer) (output, error) {
	out, _, err := w.run(tr, w.bcfg.Workers, tr != nil)
	return out, err
}

// run is one batch at the given worker count. With wrap every spec's
// policy and sink are wrapped and the sums ride on the facade's span.
func (w *session) run(tr *tracer, workers int, wrap bool) (output, time.Duration, error) {
	var specs []simmr.ReplaySpec
	var policyStats, sinkStats statsSet
	add := func(t *simmr.Trace, p simmr.Policy, slots int) {
		cfg := sessionConfig(slots)
		cfg.Sink = simmr.NewMetricsSink()
		if wrap {
			p = wrapPolicy(p, policyStats.new())
			cfg.Sink = wrapSink(cfg.Sink, sinkStats.new())
		}
		specs = append(specs, simmr.ReplaySpec{Config: cfg, Trace: t, Policy: p})
	}
	for _, p := range paperPolicies() {
		for _, slots := range sessionSlots {
			add(w.base, p, slots)
		}
	}
	for _, slots := range sessionSlots {
		add(w.variant, simmr.NewFIFO(), slots)
	}
	bcfg := w.bcfg
	bcfg.Workers = workers

	var out output
	var err error
	start := time.Now()
	id := tr.do("simmr.ReplayBatchCfg", func() {
		out.results, err = simmr.ReplayBatchCfg(context.Background(), bcfg, specs)
	})
	if err != nil {
		return out, 0, err
	}
	wall := time.Since(start)
	ps, ss := policyStats.sum(), sinkStats.sum()
	tr.annotate(id, "workers", workers)
	tr.annotate(id, "policy_calls", ps.calls)
	tr.annotate(id, "policy_ns", ps.busy().Nanoseconds())
	tr.annotate(id, "sink_calls", ss.calls)
	tr.annotate(id, "sink_ns", ss.busy().Nanoseconds())

	for _, res := range out.results {
		out.events += res.Events
	}
	st := w.cache.Stats()
	out.hits, out.misses = st.Hits-w.stats.Hits, st.Misses-w.stats.Misses
	out.cold = w.ops == 0
	w.stats = st
	if !out.cold {
		w.hits += out.hits
		w.lookups += out.hits + out.misses
	}
	return out, wall, nil
}

func (w *session) check(out output) error {
	n := len(w.want)
	if len(out.results) != n+len(w.wantNovel) {
		return fmt.Errorf("session-observed: %d results, want %d", len(out.results), n+len(w.wantNovel))
	}
	if err := checkDigests("session-observed repeating", out.results[:n], w.want); err != nil {
		return err
	}
	if err := checkDigests("session-observed novel", out.results[n:], w.wantNovel); err != nil {
		return err
	}
	wantHits, wantMisses := uint64(n), uint64(len(w.wantNovel))
	if out.cold {
		wantHits, wantMisses = 0, wantHits+wantMisses
	}
	if out.hits != wantHits || out.misses != wantMisses {
		return fmt.Errorf("session-observed: cache saw %d hits / %d misses, want %d / %d",
			out.hits, out.misses, wantHits, wantMisses)
	}
	return nil
}

// between keeps the cache directory bounded — the entries the first
// operation wrote stay, every later novel entry goes — and readies the
// next variant.
func (w *session) between() error {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	first := w.keep == nil
	if first {
		w.keep = map[string]bool{}
	}
	var novel int64
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".srrc") || w.keep[ent.Name()] {
			continue
		}
		if first {
			w.keep[ent.Name()] = true
			continue
		}
		if info, err := ent.Info(); err == nil {
			novel += info.Size()
		}
		if err := os.Remove(filepath.Join(w.dir, ent.Name())); err != nil {
			return err
		}
	}
	if !first {
		w.diskBytes = append(w.diskBytes, float64(novel))
	}
	w.ops++
	w.nextVariant()
	return nil
}

func (w *session) pin() uint64 { return combineDigests(w.want) }

func (w *session) target() probeTarget {
	return probeTarget{
		gen:      func() (*simmr.Trace, error) { return sparseTrace("session", w.e.sz.sessionJobs, w.e.seed) },
		trace:    w.base,
		cfg:      simmr.DefaultReplayConfig(),
		policies: paperPolicies(),
	}
}

// layers reports what the operations so far did to the cache, then
// measures the batch at one worker against nproc and what the facade
// adds per spec over bare pooled replays of the four specs that miss.
func (w *session) layers(tr *tracer, m map[string]float64, _ float64) error {
	if w.lookups > 0 {
		m["rcache.hit_ratio"] = float64(w.hits) / float64(w.lookups)
	}
	if len(w.diskBytes) > 0 {
		m["rcache.disk_bytes_per_op"] = median(w.diskBytes)
	}

	var serial, parallel, idle, bare []float64
	for rep := 0; rep < w.e.sz.probeReps; rep++ {
		_, w1, err := w.run(tr, 1, false)
		if err != nil {
			return err
		}
		var pool simmr.ReplayPool
		var sum time.Duration
		for _, slots := range sessionSlots {
			start := time.Now()
			var err error
			tr.do("engine.Pool.Run", func() { _, err = pool.Run(sessionConfig(slots), w.variant, simmr.NewFIFO()) })
			sum += time.Since(start)
			if err != nil {
				return err
			}
		}
		if err := w.between(); err != nil {
			return err
		}
		cpu0 := cpuSeconds()
		_, wn, err := w.run(tr, w.e.nproc, false)
		if err != nil {
			return err
		}
		cpu := cpuSeconds() - cpu0
		if err := w.between(); err != nil {
			return err
		}
		serial = append(serial, w1.Seconds())
		parallel = append(parallel, wn.Seconds())
		idle = append(idle, 1-cpu/(float64(w.e.nproc)*wn.Seconds()))
		bare = append(bare, sum.Seconds())
	}
	specs := float64(len(w.want) + len(w.wantNovel))
	m["parallel.speedup_at_nproc"] = median(serial) / median(parallel)
	m["parallel.idle_share"] = median(idle)
	m["simmr.batch_overhead_ns_per_spec"] = (median(serial) - median(bare)) * 1e9 / specs
	return nil
}

func (w *session) close() {}
