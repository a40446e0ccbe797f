// Package bench holds the in-process benchmarks: microbenchmarks of the
// engine, scheduler, what-if fork, trace loaders and result cache, plus
// one testing.B benchmark per paper table/figure (regenerating its data
// at reduced scale — run cmd/experiments for paper-scale output files).
// They are for measuring while you work (`go test -run '^$' -bench X .`);
// CI runs each once so they keep compiling and running. A wall-clock
// number that backs a claim comes from `go run ./benchmark`, paired; the
// allocation budgets the hot paths must keep are tests
// (TestReplayAllocBudget, TestSweepAllocBudget,
// TestReArmAcrossPoliciesKeepsAllocFloor).
package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simmr/internal/engine"
	"simmr/internal/experiments"
	"simmr/internal/obs"
	"simmr/internal/parallel"
	"simmr/internal/plan"
	"simmr/internal/rcache"
	"simmr/internal/runs"
	"simmr/internal/sched"
	"simmr/internal/sched/schedtest"
	"simmr/internal/synth"
	"simmr/internal/telemetry"
	"simmr/internal/tracebin"
	"simmr/pkg/simmr"
)

// replayJobs sizes the replay-throughput fixture; sweepJobs the capacity
// sweep one (smaller, because a sweep replays it once per grid cell).
// multiTenantJobs sizes the indexed-scheduler fixture. All jobs arrive
// in a burst, then the active set drains as deadlines complete, so a
// 3000-job trace sustains well over 1000 concurrently active jobs for
// most of the replay — the scale where per-slot policy scans dominate
// replay cost.
const (
	replayJobs      = 200
	sweepJobs       = 40
	multiTenantJobs = 3000
)

// fixture builds the deterministic production-style trace the
// benchmarks replay. The trace is read-only to the engine, so one
// instance is shared across all iterations and all sweep cells.
func fixture(b *testing.B, jobs int) *simmr.Trace {
	tr, err := synth.ProductionTrace(jobs, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// streamTrace collects a streamed multi-tenant trace: jobs drawn from a
// bounded template pool, half of them with deadlines.
func streamTrace(b *testing.B, jobs int, meanInterArrival float64, pool int, seed int64) *simmr.Trace {
	s, err := simmr.NewTraceStream(simmr.StreamConfig{
		Name: "bench", Jobs: jobs, MeanInterArrival: meanInterArrival, TemplatePool: pool,
		DeadlineFraction: 0.5, DeadlineSlack: 900,
		Shapes: []simmr.WeightedShape{{Shape: simmr.MultiTenantShape(), Weight: 1}},
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// pooledReplay is the body the replay benchmarks share: whole-trace
// replays through a ReplayPool — the engine-reuse path CapacitySweep
// and ReplayBatchCfg use — reported as events/sec and, via
// ReportAllocs, allocations per replay. It primes outside the timer:
// cold engine construction and the trace's one-shot Validate memo are
// one-time costs that would otherwise amortize differently as b.N
// varies, so allocs/op is the pooled steady state — the engine's jobs
// slab, the queue's event slab and the scheduling index all recycled.
func pooledReplay(b *testing.B, tr *simmr.Trace, cfg simmr.ReplayConfig, policy simmr.Policy) {
	var pool simmr.ReplayPool
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

// observedReplay is pooledReplay of the shared production trace under
// FIFO with sink attached; nil is the bare replay.
func observedReplay(b *testing.B, sink obs.Sink) {
	cfg := simmr.DefaultReplayConfig()
	cfg.Sink = sink
	pooledReplay(b, fixture(b, replayJobs), cfg, simmr.NewFIFO())
}

// BenchmarkReplayAllocs measures steady-state pooled replay of a shared
// production trace with no sink: events/sec, and in the allocs/op
// column the Result and its outcome slice, nothing per job or per event
// (the slab-backed event queue recycles events through a free list).
func BenchmarkReplayAllocs(b *testing.B) { observedReplay(b, nil) }

// BenchmarkFlightReplay is BenchmarkReplayAllocs with a flight recorder
// attached — the ops plane's always-on post-mortem ring. The recorder is
// built once and reused across pooled runs (its documented engine-reuse
// contract), so every event lands in the preallocated ring and
// allocs/op equals the bare replay's.
func BenchmarkFlightReplay(b *testing.B) {
	observedReplay(b, obs.NewFlightRecorder(0)) // 4096-event default ring
}

// BenchmarkReplayObserved is BenchmarkReplayAllocs observed the way a
// session observes it: a MetricsSink, a flight recorder and a telemetry
// engine sink teed on the engine — the stack ReplayBatchCfg builds per
// spec under Runs, Flight and Telemetry. The sinks are built once and
// the events reach them through the engine's own block, which survives
// pooling, so allocs/op equals the bare replay's here too; compare
// events/sec for the cost of turning observability on.
func BenchmarkReplayObserved(b *testing.B) {
	observedReplay(b, obs.Tee(obs.NewMetricsSink(), obs.NewFlightRecorder(0),
		telemetry.NewSimMetrics().EngineSink()))
}

// BenchmarkAttr is BenchmarkReplayAllocs with the causal attribution
// sink attached — the full `simmr trace explain` event pipeline (phase
// ledger, blame hand-offs, critical-path graph). The sink is single-run,
// so each iteration builds a fresh one; Report() is deliberately outside
// the loop (report rendering is a cold path). Compare events/sec against
// BenchmarkReplayAllocs for the price of explanation.
func BenchmarkAttr(b *testing.B) {
	tr := fixture(b, replayJobs)
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

// multiTenant replays the dense-burst trace — nearly all of its 3000
// jobs active at once for most of the replay, so allocation rounds see
// a four-digit active queue — under MaxEDF, the deadline-ordered middle
// of the policy family (FIFO's index is cheaper, Capacity's dearer). The
// bare value runs on the engine's scheduling index, as every user-facing
// path does; scan forces the paper's per-slot ChooseNext* loop — the
// differential oracle — so the pair keeps measuring what the index buys.
// The two are byte-identical in outcome (the engine differential suite
// proves it); only events/sec and allocs/op differ.
func multiTenant(b *testing.B, scan, preempt bool) {
	tr, err := synth.MultiTenantTrace(multiTenantJobs, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	var policy simmr.Policy = sched.MaxEDF{}
	if scan {
		policy = schedtest.ScanOnly(policy)
	}
	cfg := simmr.DefaultReplayConfig()
	cfg.PreemptMapTasks = preempt
	pooledReplay(b, tr, cfg, policy)
}

// BenchmarkMultiTenantScan replays 1000 concurrently active jobs
// through the reference per-slot policy scan — O(slots × jobs) per
// event, the multi-tenant bottleneck the scheduling index removes. The
// scan is forced with the oracle wrapper; no user-facing path runs it.
func BenchmarkMultiTenantScan(b *testing.B) { multiTenant(b, true, false) }

// BenchmarkMultiTenantIndexed is the same workload as every caller
// runs it: the bare policy on the engine's scheduling index (tournament
// indexes + batch slot allocation).
func BenchmarkMultiTenantIndexed(b *testing.B) { multiTenant(b, false, false) }

// BenchmarkPreemptScan is the multi-tenant workload with map-task
// preemption on: every deadline arrival hunts latest-deadline victims,
// pinning the cost of preemptFor at 1k concurrent jobs on the scan
// allocation path. Victim selection itself always goes through the
// engine's deadline-ordered preemption index (one winner query per
// kill, regardless of policy path).
func BenchmarkPreemptScan(b *testing.B) { multiTenant(b, true, true) }

// BenchmarkPreemptIndexed is the preemption workload with batch slot
// allocation as well — the default, fully indexed configuration.
func BenchmarkPreemptIndexed(b *testing.B) { multiTenant(b, false, true) }

// branchK is the fan-out width of the what-if benchmark: eight branches
// off one shared prefix.
const branchK = 8

// branchPoint replays the benchmark trace once for its total event
// count and returns the deep branch point the what-if benchmarks fork
// at: 90% through the trace, where the shared-prefix saving dominates.
func branchPoint(b *testing.B, tr *simmr.Trace) uint64 {
	res, err := simmr.Replay(simmr.DefaultReplayConfig(), tr, simmr.NewFIFO())
	if err != nil {
		b.Fatal(err)
	}
	return res.Events * 9 / 10
}

// BenchmarkFork measures the fork itself: one sealed
// snapshot at the 90% branch point, ForkInto the same recycled
// destination engine every iteration. Nothing runs after the fork, so
// ns/op is the pure branch-creation cost — the cloned events, the live
// jobs' slots and the outcomes of the first 90 % of the trace.
func BenchmarkFork(b *testing.B) {
	tr := fixture(b, replayJobs)
	e, err := engine.New(simmr.DefaultReplayConfig(), tr, simmr.NewFIFO())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.RunEvents(branchPoint(b, tr)); err != nil {
		b.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	var dst simmr.Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snap.ForkInto(&dst, engine.ForkOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBranchSet measures the full what-if fan-out: one shared
// prefix to the 90% branch point, then branchK control branches forked
// and run to completion through the pooled worker path. The reported
// events/sec counts only the suffix events the branches themselves
// simulate over the whole call's wall time, prefix included. The
// pre-fork way to the same answers is branchK full replays
// (BenchmarkReplayAllocs × 8); that a branch set simulates its prefix
// once is a count TestBranchSetTelemetry holds.
func BenchmarkBranchSet(b *testing.B) {
	tr := fixture(b, replayJobs)
	at := branchPoint(b, tr)
	branches := make([]simmr.WhatIf, branchK)
	cfg := simmr.BranchSetConfig{Trace: tr, BranchEvents: at}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var suffix uint64
	for i := 0; i < b.N; i++ {
		res, err := simmr.BranchSet(ctx, cfg, branches)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			suffix += r.Events - at
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(suffix)/b.Elapsed().Seconds(), "events/sec")
}

// capacitySweep measures a 16-cell square capacity sweep with the given
// worker count. Sixteen cells keep the worker pool load-balanced well
// past typical core counts; they share one trace, and results are
// byte-identical across worker counts. Each cell folds its outcome on
// an engine from the process-wide pool, so after the priming sweep (the
// harness collects garbage between its calls, which empties that pool)
// allocs/op is what the sweep itself costs — the grid, the fan-out —
// and nothing per job (TestSweepAllocBudget).
func capacitySweep(b *testing.B, workers int) {
	tr := fixture(b, sweepJobs)
	cfg := simmr.SweepConfig{
		MapSlotCounts: []int{4, 8, 12, 16, 24, 32, 40, 48, 64, 80, 96, 112, 128, 160, 192, 256},
		Workers:       workers,
	}
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

// BenchmarkCapacitySweepSerial is the single-worker reference for the
// 16-cell capacity sweep.
func BenchmarkCapacitySweepSerial(b *testing.B) { capacitySweep(b, 1) }

// BenchmarkCapacitySweepParallel runs the same grid with one worker per
// CPU; compare against the serial benchmark for the speedup (near-linear
// on multicore hosts, since cells are independent and share one
// read-only trace).
func BenchmarkCapacitySweepParallel(b *testing.B) { capacitySweep(b, 0) }

// BenchmarkSweepAfterSerialSweep times one 8×8 sweep of a 4000-job
// sparse trace at two workers (sweep-grid's operation in the repo
// benchmark) from two histories of the process-wide engine pool, which
// must agree within noise: it is the visible half of the scheduling
// index's cache-line isolation (needs >= 2 CPUs). own-engines: the pool is
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
func BenchmarkSweepAfterSerialSweep(b *testing.B) {
	tr := streamTrace(b, 4000, 60, 256, 1)
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
	// trail-less FoldTrail per cell.
	foldSweep := func(b *testing.B, pool *engine.Pool) time.Duration {
		start := time.Now()
		_, err := parallel.Map(context.Background(), 2, len(grid)*len(grid), func(_ context.Context, i int) (float64, error) {
			cfg := engine.Config{MapSlots: grid[i/len(grid)], ReduceSlots: grid[i%len(grid)], MinMapPercentCompleted: 0.05}
			var makespan float64
			err := pool.FoldTrail(cfg, tr, sched.FIFO{}, nil, func(res *engine.Result, _ int, _ uint64) { makespan = res.Makespan })
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

// traceLoad times one loader, in jobs/sec, on the image encode makes of
// a streamed multi-tenant trace. 20000 jobs over 64 templates is the
// deduplicated regime the `.strc` format targets: the job table
// dominates the image, the template pool and duration arena amortize to
// nothing, and the JSON wire format pays for every inlined template
// copy. Both formats describe the identical trace (the tracebin
// differential suite proves replay equivalence), so jobs/sec across the
// two loaders is a like-for-like comparison.
func traceLoad(b *testing.B, encode func(*simmr.Trace) ([]byte, error), decode func([]byte) (*simmr.Trace, error)) {
	img, err := encode(streamTrace(b, 20000, 1, 64, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	var jobs int
	for i := 0; i < b.N; i++ {
		tr, err := decode(img)
		if err != nil {
			b.Fatal(err)
		}
		jobs += len(tr.Jobs)
	}
	b.StopTimer()
	b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/sec")
}

// BenchmarkTraceLoadBin measures full `.strc` decode — header and CRC
// verification, template pool reconstruction, arena views, job table
// walk, Validate — through OpenReaderAt, which copies the image once;
// the mmap path (Open) does strictly less work per byte since the image
// is never copied.
func BenchmarkTraceLoadBin(b *testing.B) {
	path := filepath.Join(b.TempDir(), "load.strc")
	traceLoad(b, func(tr *simmr.Trace) ([]byte, error) {
		if err := simmr.WritePackedTrace(path, tr); err != nil {
			return nil, err
		}
		return os.ReadFile(path)
	}, func(img []byte) (*simmr.Trace, error) {
		s, err := tracebin.OpenReaderAt(bytes.NewReader(img), int64(len(img)))
		if err != nil {
			return nil, err
		}
		return s.Trace(), nil
	})
}

// BenchmarkTraceLoadJSON is the reference JSON loader on the identical
// trace — the encoding/json unmarshal of every inlined template plus
// Validate.
func BenchmarkTraceLoadJSON(b *testing.B) { traceLoad(b, simmr.EncodeTrace, simmr.DecodeTrace) }

// BenchmarkCacheWarm measures a fully warm replay-result-cache hit on
// the shared replay fixture, through the run plan as the CLI replays:
// key the trace/config/policy, look the entry up in the memory tier, copy
// the resident entry out into a fresh Result. Reported as jobs/sec (the cache serves whole-result units;
// events never replay on a hit — TestPlanContract). Compare ns/op
// against BenchmarkReplayAllocs for what a hit saves.
func BenchmarkCacheWarm(b *testing.B) {
	tr := fixture(b, replayJobs)
	c := simmr.NewCache(simmr.CacheOptions{})
	cfg := simmr.DefaultReplayConfig()
	cached := plan.Options{Cache: c}
	if _, hit, err := plan.One(cached, runs.KindReplay, cfg, tr, simmr.NewFIFO()); err != nil || hit {
		b.Fatalf("priming replay: hit=%v err=%v", hit, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var jobs uint64
	for i := 0; i < b.N; i++ {
		res, hit, err := plan.One(cached, runs.KindReplay, cfg, tr, simmr.NewFIFO())
		if err != nil || !hit {
			b.Fatalf("warm lookup: hit=%v err=%v", hit, err)
		}
		jobs += uint64(len(res.Jobs))
	}
	b.StopTimer()
	b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/sec")
}

// BenchmarkCacheMissWork measures the pure bookkeeping a cache-enabled
// replay adds on a miss: digest the trace content, derive the 128-bit
// key, probe the memory tier, encode and store the result. The replay
// itself is excluded (it is identical with or without a cache), so
// ns/op over BenchmarkReplayAllocs' is the cold-pass overhead fraction.
// Each iteration uses a distinct key (the digest varied by i) so every
// probe is a genuine miss and every store a genuine insert, with LRU
// eviction cost included once the budget fills.
func BenchmarkCacheMissWork(b *testing.B) {
	tr := fixture(b, replayJobs)
	cfg := simmr.DefaultReplayConfig()
	res, err := simmr.Replay(cfg, tr, simmr.NewFIFO())
	if err != nil {
		b.Fatal(err)
	}
	c := rcache.New(rcache.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, ok := rcache.KeyFor(tr.ContentHash()^uint64(i+1), cfg, sched.FIFO{})
		if !ok {
			b.Fatal("FIFO must fingerprint")
		}
		if _, hit := c.Get(key); hit {
			b.Fatal("unexpected hit on varied key")
		}
		c.Put(key, res)
	}
}

// BenchmarkEngineEventThroughput measures raw simulator-engine speed in
// events per second over a production-like workload. The paper claims
// "SimMR can process over one million events per second" (§I); see the
// reported events/sec metric.
func BenchmarkEngineEventThroughput(b *testing.B) {
	tr := fixture(b, replayJobs)
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := simmr.Replay(simmr.DefaultReplayConfig(), tr, simmr.NewFIFO())
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkMumakEventThroughput is the baseline counterpart: Mumak's
// heartbeat-level simulation processes far more events for the same
// trace (the cause of Figure 6's gap).
func BenchmarkMumakEventThroughput(b *testing.B) {
	tr := fixture(b, 50)
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := simmr.ReplayMumak(simmr.DefaultMumakConfig(), tr, simmr.NewFIFO())
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkFigure1WaveProgress regenerates the Figure 1 task-progress
// series (WordCount, 128x128 slots).
func BenchmarkFigure1WaveProgress(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2WaveProgress regenerates Figure 2 (64x64 slots).
func BenchmarkFigure2WaveProgress(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3DurationCDFs regenerates the Figure 3 phase-duration
// CDF comparison across allocations.
func BenchmarkFigure3DurationCDFs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIKLDivergence regenerates Table I at 2 executions per
// application (5 at paper scale).
func BenchmarkTableIKLDivergence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(2, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5aAccuracyFIFO regenerates the Figure 5(a) accuracy
// panel (testbed run + profile + SimMR and Mumak replays, all six apps).
func BenchmarkFigure5aAccuracyFIFO(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5FIFO(1, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5bAccuracyMinEDF regenerates Figure 5(b).
func BenchmarkFigure5bAccuracyMinEDF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5MinEDF(1, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5cAccuracyMaxEDF regenerates Figure 5(c).
func BenchmarkFigure5cAccuracyMaxEDF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5MaxEDF(1, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6SimulatorSpeed regenerates the Figure 6 speed
// comparison at a 60-job scale (1148 at paper scale).
func BenchmarkFigure6SimulatorSpeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(60, []int{20, 60}, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7DeadlineSweepReal regenerates a reduced Figure 7 sweep
// (two arrival rates, two deadline factors, 2 repetitions; the paper
// uses six rates, three factors, 400 repetitions).
func BenchmarkFigure7DeadlineSweepReal(b *testing.B) {
	cfg := experiments.DefaultFigure7Config()
	cfg.InterArrivalMeans = []float64{10, 1000}
	cfg.DeadlineFactors = []float64{1.5, 3}
	cfg.Repetitions = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.Figure7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8DeadlineSweepFacebook regenerates a reduced Figure 8
// sweep over the synthetic Facebook workload.
func BenchmarkFigure8DeadlineSweepFacebook(b *testing.B) {
	cfg := experiments.DefaultFigure8Config()
	cfg.InterArrivalMeans = []float64{10, 1000}
	cfg.DeadlineFactors = []float64{1.5, 2}
	cfg.Repetitions = 2
	cfg.JobsPerRun = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.Figure8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacebookDistributionFit regenerates the §V-C fitting step
// (LogNormal wins by KS among the candidate families).
func BenchmarkFacebookDistributionFit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FacebookFit("map", 5000, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterEmulator measures the fine-grained testbed emulator on
// one WordCount run — the expensive side of the validation pipeline.
func BenchmarkClusterEmulator(b *testing.B) {
	apps := simmr.PaperApps()
	spec := apps[3].Spec(0) // Sort/16GB: the quickest full app
	cfg := simmr.DefaultClusterConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := simmr.RunCluster(cfg, []simmr.ClusterJob{{Spec: spec}}, simmr.NewFIFO(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerDecision times what the engine runs for a built-in
// policy: the scheduling index sched.IndexFor returns, asked by
// AssignMapSlots for a round of 8 map slots over 4 and over 2,500 active
// jobs that each want two more maps. After every round the granted tasks
// are handed back, with the OnJobUpdate a preemption makes, so each
// round starts from the same state; the hand-back is timed too. ns/grant
// is the number to compare.
func BenchmarkSchedulerDecision(b *testing.B) {
	const slots = 8
	for _, p := range []sched.Policy{sched.FIFO{}, sched.MaxEDF{}, sched.Fair{}} {
		for _, n := range []int{4, 2500} {
			b.Run(fmt.Sprintf("%s/jobs=%d", p.Name(), n), func(b *testing.B) {
				ix := sched.IndexFor(p, nil)
				jobs := make([]*sched.JobInfo, n)
				for i := range jobs {
					jobs[i] = &sched.JobInfo{
						ID: i, Arrival: float64(i), Deadline: float64(1000 + i*7%301),
						NumMaps: 100, ScheduledMaps: 98, CompletedMaps: 90, NumReduces: 10,
					}
					ix.OnJobAdmit(jobs[i], 64, 64)
				}
				grants := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ids := ix.AssignMapSlots(nil, slots)
					grants += len(ids)
					for _, id := range ids {
						jobs[id].ScheduledMaps--
					}
					for _, id := range ids {
						ix.OnJobUpdate(jobs[id])
					}
				}
				if grants == 0 {
					b.Fatal("no slot granted")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(grants), "ns/grant")
			})
		}
	}
}
