// Package simmr is the public API of the SimMR MapReduce simulation
// environment, a reproduction of "Play It Again, SimMR!" (Verma,
// Cherkasova, Campbell — IEEE CLUSTER 2011).
//
// SimMR replays execution traces of MapReduce workloads — collected from
// JobTracker history logs or generated synthetically — against pluggable
// scheduling policies, emulating the Hadoop job master's slot-allocation
// decisions at task granularity. A typical session:
//
//	trace, err := simmr.ProfileLogs(logFile)       // MRProfiler
//	res, err := simmr.Replay(simmr.DefaultReplayConfig(), trace, simmr.NewMinEDF())
//	for _, job := range res.Jobs {
//	    fmt.Println(job.Name, job.CompletionTime())
//	}
//
// The package also exposes the surrounding ecosystem built for the
// paper's evaluation: the fine-grained cluster emulator standing in for
// the 66-node testbed, the Mumak-style baseline simulator, the
// Synthetic TraceGen (including the Facebook workload model), the ARIA
// performance-bounds model behind MinEDF, and the persistent trace
// database.
package simmr

import (
	"io"
	"math/rand"

	"simmr/internal/cluster"
	"simmr/internal/engine"
	"simmr/internal/hadooplog"
	"simmr/internal/model"
	"simmr/internal/mumak"
	"simmr/internal/obs"
	"simmr/internal/profiler"
	"simmr/internal/sched"
	"simmr/internal/stats"
	"simmr/internal/synth"
	"simmr/internal/telemetry"
	"simmr/internal/trace"
	"simmr/internal/tracebin"
	"simmr/internal/workload"
)

// Core trace types.
type (
	// Trace is a replayable MapReduce workload.
	Trace = trace.Trace
	// Job is one traced job: arrival, optional deadline, and template.
	Job = trace.Job
	// Template is the paper's job template: per-phase task durations.
	Template = trace.Template
	// Profile is the compact per-phase (avg, max) job profile.
	Profile = trace.Profile
	// TraceDB is the persistent trace database.
	TraceDB = trace.DB
)

// Scheduling types.
type (
	// Policy is the paper's narrow scheduler interface.
	Policy = sched.Policy
	// JobInfo is the scheduler-visible job state.
	JobInfo = sched.JobInfo
)

// Simulation types.
type (
	// ReplayConfig parameterizes the SimMR engine.
	ReplayConfig = engine.Config
	// ReplayResult is the outcome of a SimMR replay.
	ReplayResult = engine.Result
	// JobOutcome is one replayed job's completion record.
	JobOutcome = engine.JobOutcome
)

// What-if branching types (DESIGN.md §12): pause a replay at any event,
// seal it into an immutable snapshot, and fork branch
// engines off the shared prefix — each branch mutates (move a deadline,
// swap the policy) and runs to its own end, byte-identical to a
// from-scratch replay with the same edits. BranchSet is the fan-out
// runtime over these primitives.
type (
	// Engine is a paused branch engine, as WhatIf.Mutate receives it:
	// SetDeadline / SetPolicy edit the run, Now reads its clock. A
	// branch is a fork of the sealed prefix and cannot be sealed itself.
	Engine = engine.Engine
)

// Observability types (DESIGN.md §8): set ReplayConfig.Sink to receive
// the engine's typed event stream. A nil sink costs nothing; each
// concurrent engine needs its own sink instance (see SinkFactory).
type (
	// Sink receives typed engine events in handled order.
	Sink = obs.Sink
	// SinkFactory builds one sink per concurrent engine.
	SinkFactory = obs.SinkFactory
	// EngineEvent is one observed engine decision.
	EngineEvent = obs.Event
	// EngineEventKind enumerates the event taxonomy (the paper's seven
	// §III-B event types plus slot and shuffle-patch internals).
	EngineEventKind = obs.Kind
	// RunCounters are the run-level totals delivered at Sink.RunEnd.
	RunCounters = obs.Counters
	// TimelineSink reconstructs a per-slot occupancy timeline
	// (Figure 1/2-style task-progress data).
	TimelineSink = obs.TimelineSink
	// ChromeTraceSink exports a replay as Chrome trace-event JSON for
	// chrome://tracing / Perfetto.
	ChromeTraceSink = obs.ChromeTraceSink
	// MetricsSink tallies concurrency-safe counter snapshots.
	MetricsSink = obs.MetricsSink
	// SlotSpan is one task execution pinned to a concrete slot.
	SlotSpan = obs.SlotSpan
	// OverlaySpan is one span on a ChromeTraceSink analysis overlay
	// track (see ChromeTraceSink.SetOverlay and AttrOverlay).
	OverlaySpan = obs.OverlaySpan
)

// Telemetry is the sweep-wide metrics registry (DESIGN.md §10):
// counters, scrape-time gauges, and fixed-bucket histograms updated with
// plain atomics, each engine's sink writing once per block of events, so
// a single Telemetry shared by every concurrent replay costs no mutex. Set
// SweepConfig.Telemetry / BatchConfig.Telemetry (or attach EngineSink()
// to a ReplayConfig) to feed it; Registry().WritePrometheus renders it in
// Prometheus text format, as the CLIs' -debug-addr /metrics endpoint
// does. A nil *Telemetry is valid everywhere and costs nothing.
type Telemetry = telemetry.SimMetrics

// NewTelemetry builds the SimMR metric set (task-duration and
// completion histograms; per-kind event, replay and pool-reuse counters;
// replay wall-time and lifecycle-span histograms).
func NewTelemetry() *Telemetry { return telemetry.NewSimMetrics() }

// NewTimelineSink returns a slot-occupancy timeline recorder.
func NewTimelineSink() *TimelineSink { return obs.NewTimelineSink() }

// NewChromeTraceSink returns a Chrome trace-event recorder.
func NewChromeTraceSink() *ChromeTraceSink { return obs.NewChromeTraceSink() }

// NewMetricsSink returns a concurrency-safe metrics recorder.
func NewMetricsSink() *MetricsSink { return obs.NewMetricsSink() }

// TeeSinks combines sinks into one that forwards every event to each.
func TeeSinks(sinks ...Sink) Sink { return obs.Tee(sinks...) }

// Locality levels of emulated map tasks (node-local / rack-local /
// off-rack).
const (
	NodeLocal = cluster.NodeLocal
	RackLocal = cluster.RackLocal
	OffRack   = cluster.OffRack
)

// Testbed-emulator types.
type (
	// ClusterConfig describes the emulated Hadoop cluster.
	ClusterConfig = cluster.Config
	// ClusterJob is one submission to the emulated cluster.
	ClusterJob = cluster.Job
	// ClusterResult is a full emulation outcome with task spans.
	ClusterResult = cluster.Result
	// WorkloadSpec is a statistical application/dataset description.
	WorkloadSpec = workload.Spec
	// WorkloadApp is one of the paper's six applications.
	WorkloadApp = workload.App
)

// Model types.
type (
	// Bounds is a completion-time [low, up] estimate.
	Bounds = model.Bounds
)

// NewFIFO returns the default FIFO policy.
func NewFIFO() Policy { return sched.FIFO{} }

// NewMaxEDF returns the MaxEDF deadline policy: EDF ordering, maximum
// per-job allocation.
func NewMaxEDF() Policy { return sched.MaxEDF{} }

// NewMinEDF returns the MinEDF deadline policy: EDF ordering, minimal
// model-sized per-job allocation.
func NewMinEDF() Policy { return sched.MinEDF{} }

// NewFair returns the Hadoop Fair Scheduler approximation (extension
// beyond the paper).
func NewFair() Policy { return sched.Fair{} }

// NewDynamicPriority returns the Dynamic Proportional Share scheduler
// approximation (extension beyond the paper): jobs bid per slot from
// spending budgets keyed by job ID.
func NewDynamicPriority(budgets, bids map[int]float64) Policy {
	return sched.NewDynamicPriority(budgets, bids)
}

// NewCapacity returns the Capacity scheduler approximation with the
// given queue shares (extension beyond the paper).
func NewCapacity(shares []float64) Policy { return sched.Capacity{Shares: shares} }

// Indexed returns p unchanged.
//
// Deprecated: every replay now runs the built-in policies (FIFO,
// MaxEDF, MinEDF, Fair, Capacity) on the engine's own sub-linear
// scheduling index, so there is nothing left to opt into; pass the
// policy directly.
func Indexed(p Policy) Policy { return p }

// DefaultReplayConfig returns the paper's validation setup: 64 map and
// 64 reduce slots, Hadoop-style 5% reduce slowstart.
func DefaultReplayConfig() ReplayConfig { return engine.DefaultConfig() }

// Replay runs the SimMR Simulator Engine over a trace with a policy.
func Replay(cfg ReplayConfig, tr *Trace, p Policy) (*ReplayResult, error) {
	return engine.Run(cfg, tr, p)
}

// ReplayPool caches simulator engines for reuse across replays. A
// caller replaying many traces back to back (what-if loops, Monte
// Carlo repetitions, services replaying per-request) calls
// pool.Run(cfg, tr, policy) instead of Replay and skips rebuilding the
// engine's working set — event-queue lanes, job slots, scheduling
// index — on every run. The zero value is ready; safe for concurrent use;
// results are byte-identical to Replay. CapacitySweep, ReplayBatchCfg and
// BranchSet need none: they share one process-wide pool, so their
// engines stay warm from one call to the next.
type ReplayPool = engine.Pool

// MumakConfig parameterizes the Mumak-style baseline simulator.
type MumakConfig = mumak.Config

// MumakResult is the Mumak baseline's outcome.
type MumakResult = mumak.Result

// DefaultMumakConfig mirrors the paper's testbed for the baseline.
func DefaultMumakConfig() MumakConfig { return mumak.DefaultConfig() }

// ReplayMumak runs the Mumak-style baseline (heartbeat-level simulation,
// no shuffle modeling) over the same trace format.
func ReplayMumak(cfg MumakConfig, tr *Trace, p Policy) (*MumakResult, error) {
	return mumak.Run(cfg, tr, p)
}

// ProfileLogs runs MRProfiler over a JobTracker history log stream and
// returns the replayable trace.
func ProfileLogs(r io.Reader) (*Trace, error) { return profiler.FromReader(r) }

// ProfileClusterResult extracts a trace directly from an emulator run.
func ProfileClusterResult(res *ClusterResult) *Trace { return profiler.FromResult(res) }

// DefaultClusterConfig returns the emulated 66-node testbed (§IV-B).
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// RunCluster executes jobs on the emulated testbed. logw may be nil;
// pass NewLogWriter(w) to capture JobTracker-style history logs.
func RunCluster(cfg ClusterConfig, jobs []ClusterJob, p Policy, logw *LogWriter) (*ClusterResult, error) {
	return cluster.Run(cfg, jobs, p, logw)
}

// LogWriter emits Hadoop-0.20-style JobTracker history logs.
type LogWriter = hadooplog.Writer

// NewLogWriter wraps w for history-log emission.
func NewLogWriter(w io.Writer) *LogWriter { return hadooplog.NewWriter(w) }

// PaperApps returns the six applications of the paper's evaluation
// workload, calibrated for the default cluster configuration.
func PaperApps() []WorkloadApp { return workload.Apps() }

// OpenTraceDB opens (creating if needed) a persistent trace database.
func OpenTraceDB(dir string) (*TraceDB, error) { return trace.OpenDB(dir) }

// EncodeTrace and DecodeTrace convert traces to/from their JSON wire
// format.
func EncodeTrace(tr *Trace) ([]byte, error) { return trace.Encode(tr) }

// DecodeTrace parses and validates a JSON trace.
func DecodeTrace(data []byte) (*Trace, error) { return trace.Decode(data) }

// WritePackedTrace packs a trace to path atomically, as the columnar
// binary `.strc` image — deduplicated templates, one contiguous duration
// arena, per-section CRCs (see FORMATS.md).
func WritePackedTrace(path string, tr *Trace) error { return tracebin.WriteFile(path, tr) }

// OpenPackedTrace loads a `.strc` file, memory-mapping it where the
// platform allows so template duration arrays are served zero-copy off
// the file pages. Call Close on the returned trace when done with it
// to release the mapping; replaying, sweeping, and forking it work
// unchanged.
func OpenPackedTrace(path string) (*Trace, error) {
	s, err := tracebin.Open(path)
	if err != nil {
		return nil, err
	}
	return s.Trace(), nil
}

// IsPackedTrace reports whether data begins with the `.strc` magic —
// the format sniff loaders use to pick a decoder.
func IsPackedTrace(data []byte) bool { return tracebin.IsPacked(data) }

// StreamConfig describes a streaming synthesis run; TraceStream yields
// its jobs one at a time in arrival order, holding only the template
// pool in memory.
type (
	StreamConfig  = synth.StreamConfig
	TraceStream   = synth.Stream
	WeightedShape = synth.WeightedShape
)

// NewTraceStream starts a streaming synthesis run.
func NewTraceStream(cfg StreamConfig, rng *rand.Rand) (*TraceStream, error) {
	return synth.NewStream(cfg, rng)
}

// PackStream drains a trace stream straight into a packed `.strc` file
// — generation to disk in bounded memory, no materialized trace.
// Returns (jobs written, unique templates interned).
func PackStream(path string, s *TraceStream) (jobs, uniqueTemplates int, err error) {
	st, err := tracebin.WriteSource(path, s.Name(), s)
	return st.Jobs, st.UniqueTemplates, err
}

// ProductionShapes returns the six §IV-E application shapes as a
// streaming shape set.
func ProductionShapes() []WeightedShape { return synth.ProductionShapes() }

// MultiTenantShape returns the small-job multi-tenant shape as a
// streaming shape.
func MultiTenantShape() *JobShape { return synth.MultiTenantShape() }

// JobShape describes a synthetic job class for Synthetic TraceGen.
type JobShape = synth.JobShape

// WorkloadDesc is a declarative JSON workload description (a weighted
// mix of job classes with compact distribution expressions such as
// "lognormal(9.95,1.68)").
type WorkloadDesc = synth.WorkloadDesc

// ParseWorkloadDesc parses and validates a JSON workload description.
func ParseWorkloadDesc(data []byte) (*WorkloadDesc, error) {
	return synth.ParseWorkload(data)
}

// Dist is a univariate duration distribution (see internal/stats for
// the available families).
type Dist = stats.Dist

// ParseDist parses a compact distribution expression like
// "normal(10,2)+1".
func ParseDist(expr string) (Dist, error) { return synth.ParseDist(expr) }

// FacebookShape returns the synthetic Facebook workload model of §V-C
// (LogNormal task durations with the paper's fitted parameters).
func FacebookShape() *JobShape { return synth.FacebookShape() }

// GenerateTrace draws n jobs from a shape with exponential inter-arrival
// times.
func GenerateTrace(shape *JobShape, n int, meanInterArrival float64, rng *rand.Rand) (*Trace, error) {
	return synth.GenerateTrace(shape, n, meanInterArrival, rng)
}

// ProductionTrace generates an n-job workload resembling months of
// cluster history (used by the Figure 6 speed comparison with n = 1148).
func ProductionTrace(n int, rng *rand.Rand) (*Trace, error) {
	return synth.ProductionTrace(n, rng)
}

// MultiTenantTrace generates an n-job burst of small concurrent jobs —
// the multi-tenant regime where nearly all jobs are simultaneously
// active and slot-allocation cost dominates.
func MultiTenantTrace(n int, rng *rand.Rand) (*Trace, error) {
	return synth.MultiTenantTrace(n, rng)
}

// ScaleTemplate derives a larger-dataset template from a profiled one —
// the paper's stated future work (§VII).
func ScaleTemplate(t *Template, factor float64, scaleReduces bool, rng *rand.Rand) (*Template, error) {
	return trace.ScaleTemplate(t, factor, scaleReduces, rng)
}

// JobBounds estimates completion-time bounds for a profile under a slot
// allocation (the ARIA model of §V-A).
func JobBounds(p Profile, mapSlots, reduceSlots int) Bounds {
	return model.JobBounds(p, mapSlots, reduceSlots)
}
