package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"simmr/internal/des"
	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/parallel"
	"simmr/internal/rcache"
	"simmr/internal/telemetry"
	"simmr/internal/tracebin"
	"simmr/pkg/simmr"
)

// probeTarget is the replay a workload is made of: the probes time each
// layer's exported functions on it, one call at a time.
type probeTarget struct {
	gen      func() (*simmr.Trace, error) // regenerates the trace from the seed
	trace    *simmr.Trace
	cfg      simmr.ReplayConfig
	policies []simmr.Policy // stateless built-ins, replayed in turn
	// cold says the workload replays on a freshly built engine (a new
	// process per operation), not a pooled one.
	cold bool
}

// attrProbeJobs bounds the trace the attribution sink is probed on.
const attrProbeJobs = 1000

// timed runs f inside a span and returns its wall time in nanoseconds.
func timed(tr *tracer, name string, f func()) float64 {
	start := time.Now()
	tr.do(name, f)
	return float64(time.Since(start).Nanoseconds())
}

// prober decomposes a target by layer, from outside: every number is
// the median over reps of the wall time of one exported call (a span
// each), or a count the engine reports.
type prober struct {
	tr   *tracer
	t    probeTarget
	reps int
	dir  string // for the files the probes write
	m    map[string]float64

	pool   engine.Pool
	jobs   float64        // in the target's trace
	events float64        // of one replay under each policy, summed
	res    *engine.Result // of the first policy's replay
}

func probeLayers(tr *tracer, t probeTarget, reps int, dir string) (map[string]float64, error) {
	p := &prober{tr: tr, t: t, reps: reps, dir: dir, m: map[string]float64{}, jobs: float64(len(t.trace.Jobs))}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, probe := range []func() error{p.traceFile, p.engine, p.sched, p.queue, p.sinks, p.cache, p.fanOut} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.m, nil
}

// replay is one pooled replay of the target's trace, as a span.
func (p *prober) replay(cfg simmr.ReplayConfig, on *simmr.Trace, policy simmr.Policy) (res *engine.Result, err error) {
	p.tr.do("engine.Pool.Run", func() { res, err = p.pool.Run(cfg, on, policy) })
	return res, err
}

// traceFile covers synth → tracebin → trace: generate, pack, open,
// validate, hash. Each repetition opens the file afresh, so Validate
// and the cold ContentHash never see a memoized answer.
func (p *prober) traceFile() error {
	path := filepath.Join(p.dir, "probe.strc")
	var gen, pack, open, validate, hashCold, hashWarm []float64
	for rep := 0; rep < p.reps; rep++ {
		var fresh *simmr.Trace
		var err error
		gen = append(gen, timed(p.tr, "synth.Generate", func() { fresh, err = p.t.gen() }))
		if err != nil {
			return err
		}
		pack = append(pack, timed(p.tr, "tracebin.WriteFile", func() { err = tracebin.WriteFile(path, fresh) }))
		if err != nil {
			return err
		}
		var store *tracebin.Store
		var opened *simmr.Trace
		open = append(open, timed(p.tr, "tracebin.Open", func() {
			if store, err = tracebin.Open(path); err == nil {
				opened = store.Trace()
			}
		}))
		if err != nil {
			return err
		}
		p.m["tracebin.bytes_per_job"] = store.Info().BytesPerJob
		validate = append(validate, timed(p.tr, "trace.Validate", func() { err = opened.Validate() }))
		hashCold = append(hashCold, timed(p.tr, "trace.ContentHash", func() { opened.ContentHash() }))
		hashWarm = append(hashWarm, timed(p.tr, "trace.ContentHash", func() { opened.ContentHash() }))
		store.Close()
		if err != nil {
			return err
		}
	}
	p.m["synth.gen_ns_per_job"] = median(gen) / p.jobs
	p.m["tracebin.pack_ns_per_job"] = median(pack) / p.jobs
	p.m["tracebin.open_ns_per_job"] = median(open) / p.jobs
	p.m["trace.validate_ns_per_job"] = median(validate) / p.jobs
	p.m["trace.content_hash_cold_ns_per_job"] = median(hashCold) / p.jobs
	p.m["trace.content_hash_warm_ns_per_job"] = median(hashWarm) / p.jobs
	return nil
}

// engine times the cold arm and run and the pooled re-arm and run,
// under each of the target's policies in turn, then counts what one
// pooled replay allocates.
func (p *prober) engine() error {
	t := p.t
	var armCold, armPooled, runCold, runPooled []float64
	for rep := 0; rep < p.reps; rep++ {
		var arm, rearm, cold, warm float64
		p.events = 0
		for i, policy := range t.policies {
			var eng *engine.Engine
			var res *engine.Result
			var err error
			arm += timed(p.tr, "engine.New", func() { eng, err = engine.New(t.cfg, t.trace, policy) })
			if err != nil {
				return err
			}
			cold += timed(p.tr, "engine.Run", func() { res, err = eng.Run() })
			if err != nil {
				return err
			}
			p.pool.Put(eng)
			rearm += timed(p.tr, "engine.Pool.Get", func() { eng, err = p.pool.Get(t.cfg, t.trace, policy) })
			if err != nil {
				return err
			}
			warm += timed(p.tr, "engine.Run", func() { res, err = eng.Run() })
			if err != nil {
				return err
			}
			p.pool.Put(eng)
			p.events += float64(res.Events)
			if i == 0 {
				p.res = res
			}
		}
		n := float64(len(t.policies))
		armCold = append(armCold, arm/n)
		armPooled = append(armPooled, rearm/n)
		runCold = append(runCold, cold)
		runPooled = append(runPooled, warm)
	}
	p.m["engine.arm_cold_ns_per_job"] = median(armCold) / p.jobs
	p.m["engine.arm_pooled_ns_per_job"] = median(armPooled) / p.jobs
	if t.cold {
		p.m["engine.run_ns_per_event"] = median(runCold) / p.events
	} else {
		p.m["engine.run_ns_per_event"] = median(runPooled) / p.events
	}
	p.m["engine.events_per_job"] = p.events / p.jobs / float64(len(t.policies))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := p.replay(t.cfg, t.trace, t.policies[0]); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	p.m["engine.allocs_per_replay"] = float64(after.Mallocs - before.Mallocs)
	p.m["engine.bytes_per_replay"] = float64(after.TotalAlloc - before.TotalAlloc)
	return nil
}

// sched repeats the engine probe's replays with every policy call
// timed and counted; what is left of the event loop is the engine's.
func (p *prober) sched() error {
	var busy []float64
	var st callStats
	for rep := 0; rep < p.reps; rep++ {
		st = callStats{}
		for _, policy := range p.t.policies {
			if _, err := p.replay(p.t.cfg, p.t.trace, wrapPolicy(policy, &st)); err != nil {
				return err
			}
		}
		busy = append(busy, float64(st.busy().Nanoseconds()))
	}
	m := p.m
	m["sched.calls_per_event"] = float64(st.calls) / p.events
	m["sched.queue_len_mean"] = float64(st.queueLen) / float64(st.calls)
	m["sched.busy_ns_per_event"] = median(busy) / p.events
	m["sched.share_of_run"] = m["sched.busy_ns_per_event"] / m["engine.run_ns_per_event"]
	m["engine.self_ns_per_event"] = m["engine.run_ns_per_event"] - m["sched.busy_ns_per_event"]
	return nil
}

// queue counts what the engine emits and how deep its event queue
// gets, with the cheapest possible sink, then drives a standalone
// des.EventQueue at that depth: pop/push pairs, one simulated event's
// share of queue work. As in the engine, the queue starts out holding
// the trace's job arrivals, and every popped event is followed by one a
// task duration later. The engine's loop less this is its bookkeeping.
func (p *prober) queue() error {
	count := &countSink{}
	cfg := p.t.cfg
	cfg.Sink = count
	res, err := p.replay(cfg, p.t.trace, p.t.policies[0])
	if err != nil {
		return err
	}
	depth := count.counters.HeapHighWater
	p.m["obs.sink_events_per_event"] = float64(count.events) / float64(res.Events)
	p.m["des.heap_high_water"] = float64(depth)

	jobs := p.t.trace.Jobs
	var durs []float64
	for _, j := range jobs {
		durs = append(durs, j.Template.MapDurations...)
		if len(durs) >= 4096 {
			break
		}
	}
	var q des.EventQueue
	for i := 0; i < depth; i++ {
		q.PushTask(jobs[i%len(jobs)].Arrival, 0, i, 0)
	}
	const pairs = 1 << 18
	ns := timed(p.tr, "des.EventQueue", func() {
		for i := 0; i < pairs; i++ {
			e := q.Pop()
			at := e.Time
			q.Free(e)
			q.PushTask(at+durs[i%len(durs)], 0, i, 0)
		}
	})
	p.m["des.queue_ns_per_event"] = ns / pairs
	p.m["engine.bookkeeping_ns_per_event"] = p.m["engine.self_ns_per_event"] - p.m["des.queue_ns_per_event"] // derived
	return nil
}

// sinks replays with each real sink alone, wrapped: the telemetry
// sink, the flight recorder, the attribution sink.
func (p *prober) sinks() error {
	t := p.t
	// after runs once the replay a sink watched is over.
	sinkNs := func(name string, on *simmr.Trace, newSink func() obs.Sink, after func(obs.Sink)) error {
		var ns []float64
		for rep := 0; rep < p.reps; rep++ {
			var st callStats
			sink := newSink()
			cfg := t.cfg
			cfg.Sink = wrapSink(sink, &st)
			res, err := p.replay(cfg, on, t.policies[0])
			if err != nil {
				return err
			}
			ns = append(ns, float64(st.busy().Nanoseconds())/float64(res.Events))
			after(sink)
		}
		p.m[name] = median(ns)
		return nil
	}
	// The telemetry sink and the flight recorder are made to be reused;
	// an attribution sink explains one run.
	tel, flight := telemetry.NewSimMetrics(0).EngineSink(), obs.NewFlightRecorder(-1)
	if err := sinkNs("telemetry.sink_ns_per_event", t.trace, func() obs.Sink { return tel }, func(obs.Sink) {}); err != nil {
		return err
	}
	if err := sinkNs("obs.flight_ns_per_event", t.trace, func() obs.Sink { return flight }, func(obs.Sink) {}); err != nil {
		return err
	}
	// attr.Sink regrows its job table on every new job ID, so its cost
	// per event rises with the job count and a workload-sized trace
	// would take minutes: it is probed on a bounded prefix.
	prefix := &simmr.Trace{Name: t.trace.Name, Jobs: t.trace.Jobs[:min(len(t.trace.Jobs), attrProbeJobs)]}
	var report []float64
	err := sinkNs("attr.sink_ns_per_event", prefix, func() obs.Sink {
		return simmr.NewAttrSink(simmr.AttrOptions{MapSlots: t.cfg.MapSlots, ReduceSlots: t.cfg.ReduceSlots, Trace: prefix})
	}, func(s obs.Sink) {
		report = append(report, timed(p.tr, "attr.Report", func() { s.(*simmr.AttrSink).Report() }))
	})
	p.m["attr.report_ns_per_job"] = median(report) / float64(len(prefix.Jobs))
	return err
}

// cache times key, encode, decode, and a put and a hit through a
// memory + disk cache, on the first policy's result.
func (p *prober) cache() error {
	t := p.t
	dir := filepath.Join(p.dir, "probe-cache")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	cache := rcache.New(rcache.Options{Dir: dir})
	var keyNs, enc, dec, put, get []float64
	for rep := 0; rep < p.reps; rep++ {
		var key rcache.Key
		var ok bool
		keyNs = append(keyNs, timed(p.tr, "rcache.KeyFor", func() {
			key, ok = rcache.KeyFor(t.trace.ContentHash(), t.cfg, t.policies[0])
		}))
		if !ok {
			return fmt.Errorf("probe: policy %s has no fingerprint", t.policies[0].Name())
		}
		var img []byte
		var err error
		enc = append(enc, timed(p.tr, "rcache.Encode", func() { img, err = rcache.Encode(key, p.res) }))
		if err != nil {
			return err
		}
		p.m["rcache.entry_bytes_per_job"] = float64(len(img)) / p.jobs
		dec = append(dec, timed(p.tr, "rcache.Decode", func() { _, err = rcache.Decode(img, key) }))
		if err != nil {
			return err
		}
		put = append(put, timed(p.tr, "rcache.Put", func() { cache.Put(key, p.res) }))
		get = append(get, timed(p.tr, "rcache.Get", func() { _, ok = cache.Get(key) }))
		if !ok {
			return fmt.Errorf("probe: cache missed the entry it was just handed")
		}
	}
	p.m["rcache.key_ns_per_lookup"] = median(keyNs)
	p.m["rcache.encode_ns_per_job"] = median(enc) / p.jobs
	p.m["rcache.decode_ns_per_job"] = median(dec) / p.jobs
	p.m["rcache.put_ns_per_job"] = median(put) / p.jobs
	p.m["rcache.get_hit_ns_per_job"] = median(get) / p.jobs
	return nil
}

// fanOut times parallel.Map alone, over cells that do nothing.
func (p *prober) fanOut() error {
	const cells = 1 << 14
	var err error
	ns := timed(p.tr, "parallel.Map", func() {
		_, err = parallel.Map(context.Background(), 0, cells, func(context.Context, int) (struct{}, error) {
			return struct{}{}, nil
		})
	})
	p.m["parallel.map_overhead_ns_per_cell"] = ns / cells
	return err
}
