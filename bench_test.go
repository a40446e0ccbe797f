// Package bench holds the benchmark harness: one testing.B benchmark per
// paper table/figure (regenerating its data at reduced scale — run
// cmd/experiments for paper-scale output files) plus microbenchmarks for
// the performance claims of §I and §IV-E.
package bench

import (
	"math/rand"
	"testing"

	"simmr/internal/benchkit"
	"simmr/internal/experiments"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/pkg/simmr"
)

// BenchmarkReplayAllocs measures steady-state allocations per replay of
// a shared production trace (see the allocs/op column): the slab-backed
// event queue recycles events through a free list, so allocations are
// bounded by the peak live-event population, not the total event count.
func BenchmarkReplayAllocs(b *testing.B) { benchkit.Replay(b) }

// BenchmarkReplayObserved is BenchmarkReplayAllocs with the session's
// sink stack attached (metrics sink, flight recorder, telemetry sink) —
// compare the two for the cost of turning observability on. `make
// bench-guard` holds its allocs/op to BenchmarkReplayAllocs' bound and
// the no-sink path to within 5% of the BENCH_engine.json baseline.
func BenchmarkReplayObserved(b *testing.B) { benchkit.ObservedReplay(b) }

// BenchmarkAttr is BenchmarkReplayAllocs with the causal attribution
// sink attached — the full `simmr trace explain` event pipeline (phase
// ledger, blame hand-offs, critical-path graph), fresh sink per replay,
// report rendering excluded. Lands in BENCH_engine.json as
// attr_events_per_sec; compare against BenchmarkReplayAllocs for the
// price of explanation.
func BenchmarkAttr(b *testing.B) { benchkit.Attr(b) }

// BenchmarkFlightReplay is BenchmarkReplayAllocs with a flight recorder
// attached — the ops plane's always-on post-mortem ring. Its allocs/op
// must equal the bare pooled replay's (the ring is preallocated and
// reused across runs); `make bench-guard` holds it to the very same
// alloc bound as BenchmarkReplayAllocs, not a separate baseline.
func BenchmarkFlightReplay(b *testing.B) { benchkit.FlightReplay(b) }

// BenchmarkMultiTenantScan replays 1000 concurrently active jobs
// through the reference per-slot policy scan — O(slots × jobs) per
// event, the multi-tenant bottleneck the scheduling index removes. The
// scan is forced with the oracle wrapper; no user-facing path runs it.
func BenchmarkMultiTenantScan(b *testing.B) { benchkit.MultiTenant(b, true) }

// BenchmarkMultiTenantIndexed is the same workload as every caller
// runs it: the bare policy on the engine's scheduling index (tournament
// indexes + batch slot allocation); outcomes are byte-identical to the
// scan, only the lookup cost changes. The ratio lands in
// BENCH_engine.json as sched_speedup.
func BenchmarkMultiTenantIndexed(b *testing.B) { benchkit.MultiTenant(b, false) }

// BenchmarkPreemptScan pins preemption cost at 1k concurrent jobs on
// the scan allocation path. Victim selection itself always goes through
// the engine's deadline-ordered preemption index (one winner query per
// kill, regardless of policy path).
func BenchmarkPreemptScan(b *testing.B) { benchkit.Preempt(b, true) }

// BenchmarkPreemptIndexed is the preemption workload with batch slot
// allocation as well — the default, fully indexed configuration.
func BenchmarkPreemptIndexed(b *testing.B) { benchkit.Preempt(b, false) }

// BenchmarkFork measures one copy-on-write ForkInto off a sealed
// snapshot at a 90% branch point — pure branch-creation cost (cloned
// event queue plus constant bookkeeping; job chunks stay shared until
// the branch writes). Lands in BENCH_engine.json as fork_ns_per_op.
func BenchmarkFork(b *testing.B) { benchkit.Fork(b) }

// BenchmarkBranchSet runs the K=8 what-if fan-out: one shared prefix
// to 90% of the trace, eight forked branches run to completion. The
// events/sec metric counts only branch-suffix events
// (branch_events_per_sec in BENCH_engine.json).
func BenchmarkBranchSet(b *testing.B) { benchkit.BranchSet(b) }

// BenchmarkBranchIndependent answers the same eight what-ifs the
// pre-fork way — eight full pooled replays. Its wall time over
// BenchmarkBranchSet's is branch_speedup; `make bench-guard` holds
// that ratio above benchkit.BranchSpeedupFloor.
func BenchmarkBranchIndependent(b *testing.B) { benchkit.BranchIndependent(b) }

// BenchmarkCapacitySweepSerial is the single-worker reference for the
// 16-cell capacity sweep.
func BenchmarkCapacitySweepSerial(b *testing.B) { benchkit.Sweep(b, 1) }

// BenchmarkCapacitySweepParallel runs the same grid with one worker per
// CPU; compare against the serial benchmark for the speedup (near-linear
// on multicore hosts, since cells are independent and share one
// read-only trace).
func BenchmarkCapacitySweepParallel(b *testing.B) { benchkit.Sweep(b, 0) }

// BenchmarkSweepAfterSerialSweep times the same two-worker sweep on
// engines its own workers built and on engines a serial caller left in
// the process-wide pool. The pair must agree within noise: it is the
// visible half of the scheduling index's cache-line isolation.
// layout-cost is the paired version, engines built side by side against
// engines built apart, and reports the difference in percent (see
// benchkit.SweepAfterSerialSweep; needs >= 2 CPUs).
func BenchmarkSweepAfterSerialSweep(b *testing.B) { benchkit.SweepAfterSerialSweep(b) }

// BenchmarkTraceLoadBin measures full `.strc` decode (CRC verify,
// template dedup reconstruction, zero-copy arena views, Validate) in
// jobs/sec on a 20000-job deduplicated trace.
func BenchmarkTraceLoadBin(b *testing.B) { benchkit.TraceLoadBin(b) }

// BenchmarkTraceLoadJSON is the reference JSON loader on the identical
// trace; the ratio against BenchmarkTraceLoadBin is the recorded
// trace_load_speedup, guarded above benchkit.TraceLoadSpeedupFloor.
func BenchmarkTraceLoadJSON(b *testing.B) { benchkit.TraceLoadJSON(b) }

// BenchmarkEngineEventThroughput measures raw simulator-engine speed in
// events per second over a production-like workload. The paper claims
// "SimMR can process over one million events per second" (§I); see the
// reported events/sec metric.
func BenchmarkEngineEventThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr, err := synth.ProductionTrace(200, rng)
	if err != nil {
		b.Fatal(err)
	}
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
	rng := rand.New(rand.NewSource(1))
	tr, err := synth.ProductionTrace(50, rng)
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkSchedulerDecision isolates one policy decision over a
// 100-job queue — the inner loop of every allocation round.
func BenchmarkSchedulerDecision(b *testing.B) {
	q := make([]*sched.JobInfo, 100)
	for i := range q {
		q[i] = &sched.JobInfo{
			ID: i, Arrival: float64(i), Deadline: float64(1000 + i*7%301),
			NumMaps: 100, NumReduces: 10, ReduceReady: true,
		}
	}
	policies := []sched.Policy{sched.FIFO{}, sched.MaxEDF{}, sched.MinEDF{}, sched.Fair{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := policies[i%len(policies)]
		if p.ChooseNextMapTask(q) < 0 {
			b.Fatal("no job chosen")
		}
	}
}
