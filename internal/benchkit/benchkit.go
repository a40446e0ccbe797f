// Package benchkit holds the engine microbenchmark bodies shared by the
// top-level bench harness (bench_test.go) and cmd/benchreport. Keeping
// one body per benchmark guarantees that the numbers in
// BENCH_engine.json are produced by exactly the code that `go test
// -bench` runs interactively.
package benchkit

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/parallel"
	"simmr/internal/sched"
	"simmr/internal/sched/schedtest"
	"simmr/internal/synth"
	"simmr/internal/telemetry"
	"simmr/pkg/simmr"
)

// replayJobs sizes the replay-throughput fixture; sweepJobs the capacity
// sweep one (smaller, because a sweep replays it once per grid cell).
// multiTenantJobs sizes the indexed-scheduler fixture. All jobs arrive
// in a burst, then the active set drains as deadlines complete, so a
// 3000-job trace sustains well over 1000 concurrently active jobs for
// most of the replay — the scale where per-slot policy scans dominate
// replay cost (the acceptance bar is >= 3x indexed-over-scan at 1k+
// concurrent jobs).
const (
	replayJobs      = 200
	sweepJobs       = 40
	multiTenantJobs = 3000
)

// sweepSlotCounts is the square capacity-sweep grid. Sixteen cells keep
// the worker pool load-balanced well past typical core counts, so the
// parallel/serial wall-time ratio approaches GOMAXPROCS on multicore
// hosts.
var sweepSlotCounts = []int{4, 8, 12, 16, 24, 32, 40, 48, 64, 80, 96, 112, 128, 160, 192, 256}

// fixture builds the deterministic production-style trace the
// benchmarks replay. The trace is read-only to the engine, so one
// instance is shared across all iterations and all sweep cells.
func fixture(jobs int) *simmr.Trace {
	rng := rand.New(rand.NewSource(1))
	tr, err := synth.ProductionTrace(jobs, rng)
	if err != nil {
		panic(err) // statically valid generator parameters
	}
	return tr
}

// Replay measures whole-trace replay on a shared trace: events/sec
// throughput and — via ReportAllocs — the steady-state allocations per
// replay. It replays through a ReplayPool, the same engine-reuse path
// CapacitySweep and ReplayBatchCfg use, so after the first iteration the
// engine's jobs slab and the queue's event slab are fully recycled and
// allocs/op reflects the pooled steady state, not cold construction.
func Replay(b *testing.B) { pooledReplay(b, nil) }

// FlightReplay is Replay with a flight recorder attached — the ops
// plane's always-on post-mortem capture. The recorder is built once and
// reused across pooled runs (its documented engine-reuse contract), so
// after the first iteration every event lands in the preallocated ring
// and allocs/op must equal the plain pooled replay's: the guard holds
// this benchmark to the very same alloc bound as Replay, proving the
// recorder's zero-alloc steady state rather than asserting it.
func FlightReplay(b *testing.B) {
	pooledReplay(b, obs.NewFlightRecorder(0)) // 4096-event default ring
}

// ObservedReplay is Replay observed the way a session observes it: a
// MetricsSink, a flight recorder and a telemetry engine sink teed on
// the engine — the stack ReplayBatchCfg builds per spec under Runs,
// Flight and Telemetry. The sinks are built once and serve every pooled
// run, and the events reach them through the engine's own block, which
// survives pooling; so the guard holds allocs/op to Replay's exact
// bound here too, and events/sec prices observation end to end.
func ObservedReplay(b *testing.B) {
	pooledReplay(b, obs.Tee(obs.NewMetricsSink(), obs.NewFlightRecorder(0),
		telemetry.NewSimMetrics(0).EngineSink()))
}

// pooledReplay is the body the three replay benchmarks share; sink may
// be nil.
func pooledReplay(b *testing.B, sink obs.Sink) {
	tr := fixture(replayJobs)
	cfg := simmr.DefaultReplayConfig()
	cfg.Sink = sink
	var pool simmr.ReplayPool
	// Prime outside the timer: cold engine construction and the trace's
	// one-shot Validate memo are one-time costs that would otherwise
	// amortize differently as b.N varies run to run, and the steady
	// state is lean enough that the jitter exceeds the guard's ±5%. The
	// guard holds the observed variants to the bare replay's exact alloc
	// bound, so all must exclude cold construction identically.
	if _, err := pool.Run(cfg, tr, simmr.NewFIFO()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := pool.Run(cfg, tr, simmr.NewFIFO())
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// multiTenantFixture builds the 1000-job dense-burst trace: nearly all
// jobs are active at once for most of the replay, so allocation rounds
// see a four-digit active queue. Shared read-only like fixture's.
func multiTenantFixture() *simmr.Trace {
	rng := rand.New(rand.NewSource(2))
	tr, err := synth.MultiTenantTrace(multiTenantJobs, rng)
	if err != nil {
		panic(err) // statically valid generator parameters
	}
	return tr
}

// multiTenantPolicy picks the benchmark policy: MaxEDF, the
// deadline-ordered middle of the policy family (FIFO's index is
// cheaper, Capacity's dearer). The bare value runs on the engine's
// scheduling index, as every user-facing path does; scan forces the
// paper's per-slot ChooseNext* loop — the differential oracle — so the
// pair keeps measuring what the index buys.
func multiTenantPolicy(scan bool) simmr.Policy {
	if scan {
		return schedtest.ScanOnly(sched.MaxEDF{})
	}
	return sched.MaxEDF{}
}

// MultiTenant measures whole-trace replay throughput at 1000
// concurrently active jobs on the engine's default (indexed) scheduling
// path, or with scan set on the reference scan. The two are
// byte-identical in outcome (the engine differential suite proves it);
// only events/sec and allocs/op differ.
func MultiTenant(b *testing.B, scan bool) {
	tr := multiTenantFixture()
	policy := multiTenantPolicy(scan)
	var pool simmr.ReplayPool
	// Primed for the same reason as Replay: sched_allocs_per_op guards
	// the pooled steady state (filler slabs recycled, Validate memoized),
	// not first-run slab growth.
	if _, err := pool.Run(simmr.DefaultReplayConfig(), tr, policy); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := pool.Run(simmr.DefaultReplayConfig(), tr, policy)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// Preempt is MultiTenant with map-task preemption enabled: every
// deadline arrival hunts latest-deadline victims, pinning the cost of
// preemptFor at 1k concurrent jobs. Victim selection uses the engine's
// preemption index on both paths; the default path additionally batches
// slot allocation.
func Preempt(b *testing.B, scan bool) {
	tr := multiTenantFixture()
	policy := multiTenantPolicy(scan)
	cfg := simmr.DefaultReplayConfig()
	cfg.PreemptMapTasks = true
	var pool simmr.ReplayPool
	// Primed for the same reason as Replay/MultiTenant.
	if _, err := pool.Run(cfg, tr, policy); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := pool.Run(cfg, tr, policy)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// Attr measures whole-trace replay with a causal attribution sink
// attached — the full observability stack the `simmr trace explain`
// path pays: every event classified into a wait phase, blame hand-offs
// tracked, the critical-path graph grown. The sink is single-run, so
// unlike ObservedReplay each iteration builds a fresh one; Report() is
// deliberately outside the loop (report rendering is a cold path).
// Compare events/sec against Replay for the price of explanation.
func Attr(b *testing.B) {
	tr := fixture(replayJobs)
	cfg := simmr.DefaultReplayConfig()
	var pool simmr.ReplayPool
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Sink = simmr.NewAttrSink(simmr.AttrOptions{
			MapSlots: cfg.MapSlots, ReduceSlots: cfg.ReduceSlots, Trace: tr,
		})
		res, err := pool.Run(cfg, tr, simmr.NewFIFO())
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// Sweep measures a 16-cell square capacity sweep with the given worker
// count (1 = serial reference, 0 = one worker per CPU). Cells share one
// trace; results are byte-identical across worker counts. Each cell
// folds its outcome on an engine from the process-wide pool, so after
// the priming sweep allocs/op is what the sweep itself costs — the
// grid, the fan-out, one label per cell — and nothing per job.
func Sweep(b *testing.B, workers int) {
	tr := fixture(sweepJobs)
	cfg := simmr.SweepConfig{MapSlotCounts: sweepSlotCounts, Workers: workers}
	// Primed for the same reason as Replay: the harness collects garbage
	// between its calls, which empties the engine pool.
	if _, err := simmr.CapacitySweep(tr, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simmr.CapacitySweep(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// serialSweep runs Sweep at one worker on one P — the reference the
// parallel sweep is timed against and, its allocation counts being
// deterministic there, what sweep_allocs_per_op records and guards.
func serialSweep() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		Sweep(b, 1)
	})
}

// SweepAfterSerialSweep times one 8×8 sweep of a 4000-job sparse trace
// at two workers (sweep-grid's operation in the repo benchmark) from two
// histories of the process-wide engine pool. own-engines: the pool is
// emptied and two-worker sweeps arm it, each worker building the engine
// it keeps using. after-serial: the pool is emptied and three Workers: 1
// sweeps arm it before the first two-worker one, so one goroutine builds
// the first engine and whichever worker comes up short builds the other
// later — after a GC has flushed the allocator's per-P caches — out of
// the same spans. The two must run within noise of each other. When the
// engines' scheduling indexes were ordinary small allocations,
// after-serial put both engines' index state in shared cache lines and
// ran 1.2–1.6× slower, CPU time up with it (internal/sched/index.go,
// "Line isolation"); TestIndexIsolation guards the cause, this shows
// the effect. It needs two CPUs to show anything.
//
// Timing one history after the other only resolves that gross effect:
// the box's own speed moves by more than 5 % between two sub-benchmarks,
// and where the allocator puts the spare worker's engine is a lottery.
// layout-cost draws the losing ticket on purpose and measures it paired:
// one pool gets two engines built back to back by a single goroutine —
// the index objects of one next to the other's — a second pool two
// engines born at the same moment on two goroutines, out of different
// Ps' spans, and one sweep on each alternates, A B B A. The drift
// cancels in the pair; together-vs-apart-% (median over the pairs) is
// what adjacency costs: +4 to +11 % with the index isolated in 64-byte
// units, 0 to +3 % in 128-byte units (30 pairs a run, four runs each) —
// the adjacent-line prefetcher's share, which the repo benchmark's
// processes paid or not (+0.4 to +12 %) depending on where their second
// engine landed.
func SweepAfterSerialSweep(b *testing.B) {
	s, err := simmr.NewTraceStream(simmr.StreamConfig{
		Name: "sweep", Jobs: 4000, MeanInterArrival: 60, TemplatePool: 256,
		DeadlineFraction: 0.5, DeadlineSlack: 900,
		Shapes: []simmr.WeightedShape{{Shape: simmr.MultiTenantShape(), Weight: 1}},
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		b.Fatal(err)
	}
	grid := []int{16, 24, 32, 48, 64, 80, 96, 128}
	sweep := func(b *testing.B, workers int) {
		cfg := simmr.SweepConfig{MapSlotCounts: grid, ReduceSlotCounts: grid, Workers: workers}
		if _, err := simmr.CapacitySweep(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, history := range []struct {
		name string
		arm  []int // worker counts of the sweeps that arm the emptied pool
	}{
		{"own-engines", []int{2, 2}},
		{"after-serial", []int{1, 1, 1, 2}},
	} {
		b.Run(history.name, func(b *testing.B) {
			runtime.GC() // two cycles let go of every pooled engine
			runtime.GC()
			for _, workers := range history.arm {
				sweep(b, workers)
				if workers == 1 {
					runtime.GC()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep(b, 2)
			}
		})
	}

	// foldSweep is the sweep's fan-out on a given pool: two workers, one
	// Fold per cell.
	foldSweep := func(b *testing.B, pool *engine.Pool) time.Duration {
		start := time.Now()
		_, err := parallel.Map(context.Background(), 2, len(grid)*len(grid), func(_ context.Context, i int) (float64, error) {
			cfg := engine.Config{MapSlots: grid[i/len(grid)], ReduceSlots: grid[i%len(grid)], MinMapPercentCompleted: 0.05}
			var makespan float64
			err := pool.Fold(cfg, tr, sched.FIFO{}, func(res *engine.Result) { makespan = res.Makespan })
			return makespan, err
		})
		if err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	b.Run("layout-cost", func(b *testing.B) {
		if runtime.GOMAXPROCS(0) < 2 {
			b.Skip("needs two Ps")
		}
		cfg := engine.Config{MapSlots: 128, ReduceSlots: 128, MinMapPercentCompleted: 0.05}
		born := func(pool *engine.Pool) *engine.Engine {
			e, err := pool.Get(cfg, tr, sched.FIFO{})
			if err != nil {
				b.Error(err)
			}
			return e
		}
		var together, apart engine.Pool
		e1, e2 := born(&together), born(&together)
		together.Put(e1)
		together.Put(e2)
		// Each goroutine holds its P, spinning, until both engines exist,
		// so the second is not built on the P the first was.
		var built atomic.Int32
		var done sync.WaitGroup
		for w := 0; w < 2; w++ {
			done.Add(1)
			go func() {
				defer done.Done()
				e := born(&apart)
				for built.Add(1); built.Load() < 2; {
				}
				apart.Put(e)
			}()
		}
		done.Wait()
		if b.Failed() {
			return
		}
		foldSweep(b, &together)
		foldSweep(b, &apart)
		diffs := make([]float64, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var tog, apt time.Duration
			if i%2 == 0 {
				tog = foldSweep(b, &together)
				apt = foldSweep(b, &apart)
			} else {
				apt = foldSweep(b, &apart)
				tog = foldSweep(b, &together)
			}
			diffs = append(diffs, 200*(tog-apt).Seconds()/(tog+apt).Seconds())
		}
		sort.Float64s(diffs)
		b.ReportMetric(diffs[len(diffs)/2], "together-vs-apart-%")
	})
}

// Metrics summarizes one Collect run; cmd/benchreport serializes it as
// BENCH_engine.json.
type Metrics struct {
	GoMaxProcs           int     `json:"gomaxprocs"`
	NumCPU               int     `json:"num_cpu"`
	EventsPerSec         float64 `json:"events_per_sec"`
	ReplayAllocsPerOp    int64   `json:"replay_allocs_per_op"`
	ReplayBytesPerOp     int64   `json:"replay_bytes_per_op"`
	SweepSerialSeconds   float64 `json:"sweep_serial_seconds"`
	SweepParallelSeconds float64 `json:"sweep_parallel_seconds,omitempty"`
	// SweepAllocsPerOp / SweepBytesPerOp are the warmed serial sweep's
	// allocations: per sweep and per cell, nothing per job (each cell
	// folds its outcome in place on a pooled engine). Deterministic, and
	// guarded like ReplayAllocsPerOp.
	SweepAllocsPerOp int64 `json:"sweep_allocs_per_op"`
	SweepBytesPerOp  int64 `json:"sweep_bytes_per_op"`
	// SweepSpeedup is serial / parallel wall time for the same grid; it
	// approaches NumCPU on unloaded multicore hosts. On a single-CPU
	// host the ratio is pure scheduling noise, so Collect skips the
	// parallel run entirely and sets SweepSpeedupSkipped instead of
	// recording a meaningless sub-1.0 value. Both parallel fields are
	// omitted (not zero) from the JSON on such baselines, so consumers
	// can tell "never measured" from "measured as zero".
	SweepSpeedup        float64 `json:"sweep_speedup,omitempty"`
	SweepSpeedupSkipped bool    `json:"sweep_speedup_skipped,omitempty"`

	// The multi-tenant scheduling pair: replay throughput at 1000
	// concurrently active jobs on the engine's scheduling index — the
	// default path (sched_events_per_sec) — versus the reference per-slot scan
	// (sched_scan_events_per_sec), and their ratio. SchedAllocsPerOp is
	// the indexed path's steady-state allocations per replay — the
	// allocate() regression guard's baseline. PreemptEventsPerSec is the
	// same workload with map-task preemption on (indexed victim lookup).
	SchedEventsPerSec     float64 `json:"sched_events_per_sec"`
	SchedScanEventsPerSec float64 `json:"sched_scan_events_per_sec"`
	SchedSpeedup          float64 `json:"sched_speedup"`
	SchedAllocsPerOp      int64   `json:"sched_allocs_per_op"`
	PreemptEventsPerSec   float64 `json:"preempt_events_per_sec"`

	// The what-if branching trio: ForkNsPerOp is the pure cost of one
	// copy-on-write ForkInto off a sealed 90% snapshot (queue clone plus
	// constant bookkeeping, all job chunks still shared);
	// BranchEventsPerSec is the K=8 fan-out's branch-suffix throughput;
	// BranchSpeedup is eight independent full replays' wall time over
	// one BranchSet answering the same eight questions — the shared
	// prefix should make this >= 2x even on one CPU (the guard's floor).
	ForkNsPerOp        float64 `json:"fork_ns_per_op"`
	BranchEventsPerSec float64 `json:"branch_events_per_sec"`
	BranchSpeedup      float64 `json:"branch_speedup"`

	// AttrEventsPerSec is replay throughput with the causal attribution
	// sink attached (fresh sink per replay, report rendering excluded) —
	// the price of `simmr trace explain`, to be read against
	// EventsPerSec. The nil-sink path is what the guard holds to its
	// allocation bound; attribution is pay-when-you-ask by design.
	AttrEventsPerSec float64 `json:"attr_events_per_sec"`

	// FlightEventsPerSec / FlightAllocsPerOp are replay throughput and
	// steady-state allocations with a flight recorder attached as the
	// sink. Unlike attribution, the recorder is meant to fly on every
	// production run, so the guard holds FlightAllocsPerOp to the same
	// deterministic bound as the bare replay: the ring write must be
	// allocation-free.
	FlightEventsPerSec float64 `json:"flight_events_per_sec"`
	FlightAllocsPerOp  int64   `json:"flight_allocs_per_op"`

	// ObservedEventsPerSec / ObservedAllocsPerOp are the same with the
	// whole session stack attached (MetricsSink + flight recorder +
	// telemetry sink through one tee): what switching the ops plane on
	// costs a replay. The guard holds the allocations to the bare
	// replay's bound — the observation block is the engine's and
	// survives pooling.
	ObservedEventsPerSec float64 `json:"observed_events_per_sec"`
	ObservedAllocsPerOp  int64   `json:"observed_allocs_per_op"`

	// The trace-loader pair: full-decode jobs/sec for the columnar
	// `.strc` store (trace_load_jobs_per_sec) versus the reference JSON
	// loader (trace_json_load_jobs_per_sec) on the identical 20000-job
	// deduplicated trace, their ratio, and the packed image's bytes per
	// job. The guard holds the ratio to TraceLoadSpeedupFloor — a
	// structural bound like BranchSpeedup's, since both loaders run on
	// the same host.
	TraceLoadJobsPerSec     float64 `json:"trace_load_jobs_per_sec"`
	TraceJSONLoadJobsPerSec float64 `json:"trace_json_load_jobs_per_sec"`
	TraceLoadSpeedup        float64 `json:"trace_load_speedup"`
	TraceBytesPerJob        float64 `json:"trace_bytes_per_job"`

	// The replay-result-cache pair. CacheHitJobsPerSec is warm-hit
	// serving throughput (key + memory-tier lookup + columnar decode,
	// whole results per unit); CacheWarmSpeedup is the fresh replay's
	// per-op wall time over the warm hit's — the guard holds it to
	// CacheWarmSpeedupFloor. CacheColdOverheadPct is the miss-path
	// bookkeeping (hash, key, probe, encode, store) as a percentage of
	// one fresh replay — what a cold cache-enabled sweep pays over an
	// uncached one, bounded by CacheColdOverheadMaxPct.
	CacheHitJobsPerSec   float64 `json:"cache_hit_jobs_per_sec"`
	CacheWarmSpeedup     float64 `json:"cache_warm_speedup"`
	CacheColdOverheadPct float64 `json:"cache_cold_overhead_pct"`

	GeneratedAt string `json:"generated_at,omitempty"`
}

// Collect runs the engine benchmarks (replay, multi-tenant scheduling,
// what-if branching, capacity sweeps) through testing.Benchmark and
// condenses their results. The sweep pair is pinned explicitly —
// GOMAXPROCS=1 for the serial reference, GOMAXPROCS=NumCPU for the
// parallel run — so the recorded speedup measures the worker pool, not
// whatever GOMAXPROCS the harness happened to inherit.
func Collect() Metrics {
	m := Metrics{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}

	rep := testing.Benchmark(Replay)
	m.EventsPerSec = rep.Extra["events/sec"]
	m.ReplayAllocsPerOp = rep.AllocsPerOp()
	m.ReplayBytesPerOp = rep.AllocedBytesPerOp()

	scan := testing.Benchmark(func(b *testing.B) { MultiTenant(b, true) })
	idx := testing.Benchmark(func(b *testing.B) { MultiTenant(b, false) })
	m.SchedScanEventsPerSec = scan.Extra["events/sec"]
	m.SchedEventsPerSec = idx.Extra["events/sec"]
	m.SchedAllocsPerOp = idx.AllocsPerOp()
	if m.SchedScanEventsPerSec > 0 {
		m.SchedSpeedup = m.SchedEventsPerSec / m.SchedScanEventsPerSec
	}
	pre := testing.Benchmark(func(b *testing.B) { Preempt(b, false) })
	m.PreemptEventsPerSec = pre.Extra["events/sec"]

	at := testing.Benchmark(Attr)
	m.AttrEventsPerSec = at.Extra["events/sec"]

	fl := testing.Benchmark(FlightReplay)
	m.FlightEventsPerSec = fl.Extra["events/sec"]
	m.FlightAllocsPerOp = fl.AllocsPerOp()
	ob := testing.Benchmark(ObservedReplay)
	m.ObservedEventsPerSec = ob.Extra["events/sec"]
	m.ObservedAllocsPerOp = ob.AllocsPerOp()

	binLoad := testing.Benchmark(TraceLoadBin)
	jsonLoad := testing.Benchmark(TraceLoadJSON)
	m.TraceLoadJobsPerSec = binLoad.Extra["jobs/sec"]
	m.TraceJSONLoadJobsPerSec = jsonLoad.Extra["jobs/sec"]
	if m.TraceJSONLoadJobsPerSec > 0 {
		m.TraceLoadSpeedup = m.TraceLoadJobsPerSec / m.TraceJSONLoadJobsPerSec
	}
	if fx, err := traceLoadOnce(); err == nil {
		m.TraceBytesPerJob = float64(len(fx.bin)) / float64(traceLoadJobs)
	}

	replaySec := rep.T.Seconds() / float64(rep.N)
	cw := testing.Benchmark(CacheWarm)
	m.CacheHitJobsPerSec = cw.Extra["jobs/sec"]
	if warmSec := cw.T.Seconds() / float64(cw.N); warmSec > 0 {
		m.CacheWarmSpeedup = replaySec / warmSec
	}
	// Cold overhead is measured directly as miss-path work over one
	// fresh replay, not by subtracting two full replay timings — the
	// difference of two noisy wall-clock numbers would swamp a 2% bound.
	cm := testing.Benchmark(CacheMissWork)
	if missSec := cm.T.Seconds() / float64(cm.N); replaySec > 0 {
		m.CacheColdOverheadPct = missSec / replaySec * 100
	}

	// The what-if branching trio runs on every host, single-CPU
	// included: BranchSpeedup comes from the shared prefix, not from
	// parallelism, so it is meaningful (and guarded) even at one worker.
	fork := testing.Benchmark(Fork)
	m.ForkNsPerOp = float64(fork.T.Nanoseconds()) / float64(fork.N)
	bs := testing.Benchmark(BranchSet)
	m.BranchEventsPerSec = bs.Extra["events/sec"]
	ind := testing.Benchmark(BranchIndependent)
	bsSec := bs.T.Seconds() / float64(bs.N)
	indSec := ind.T.Seconds() / float64(ind.N)
	if bsSec > 0 {
		m.BranchSpeedup = indSec / bsSec
	}

	serial := serialSweep()
	m.SweepSerialSeconds = serial.T.Seconds() / float64(serial.N)
	m.SweepAllocsPerOp = serial.AllocsPerOp()
	m.SweepBytesPerOp = serial.AllocedBytesPerOp()
	if m.NumCPU == 1 {
		// A parallel/serial ratio on one CPU measures goroutine context
		// switching, not the worker pool; skip it rather than record
		// sub-1.0 noise that a guard would then have to special-case.
		m.SweepSpeedupSkipped = true
		return m
	}
	par := testing.Benchmark(func(b *testing.B) {
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		defer runtime.GOMAXPROCS(prev)
		Sweep(b, 0)
	})
	m.SweepParallelSeconds = par.T.Seconds() / float64(par.N)
	if m.SweepParallelSeconds > 0 {
		m.SweepSpeedup = m.SweepSerialSeconds / m.SweepParallelSeconds
	}
	return m
}
