package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json repeats these
// tables for the driver; TestBenchmarkJSONMatchesTables keeps the two
// in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of the simulator waits for or pays, measured
// with tracing off. failed ops are not a metric here because the
// driver's contract forbids a metric that is always 0: they are the
// `failed`/`attempted` keys of the result line instead. The bounds are
// as wide as the driver allows because the box is: see README.md,
// "Measured A/A gaps".
var endToEnd = []metricDef{
	{"op_s_p50", "s", "lower", 0.25},
	{"op_s_p75", "s", "lower", 0.25},
	{"events_per_sec", "events/s", "higher", 0.25},
	{"cpu_s_per_op", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is one traced run's split by package. Every workload prints
// every name (the driver requires it); a layer a workload never enters
// reports 0, or 1 for a speedup. Counts repeat exactly run to run.
var perLayer = []metricDef{
	{Name: "tracebin.open_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "tracebin.pack_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "tracebin.bytes_per_job", Unit: "B/job", Better: "lower"},
	{Name: "trace.validate_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "trace.content_hash_cold_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "trace.content_hash_warm_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "synth.gen_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "engine.arm_cold_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "engine.arm_pooled_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "engine.run_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "engine.self_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "engine.bookkeeping_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "engine.allocs_per_replay", Unit: "count", Better: "lower"},
	{Name: "engine.bytes_per_replay", Unit: "B", Better: "lower"},
	{Name: "engine.events_per_job", Unit: "count", Better: "lower"},
	{Name: "des.heap_high_water", Unit: "count", Better: "lower"},
	{Name: "des.queue_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "sched.calls_per_event", Unit: "count", Better: "lower"},
	{Name: "sched.queue_len_mean", Unit: "count", Better: "lower"},
	{Name: "sched.busy_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "sched.share_of_run", Unit: "ratio", Better: "lower"},
	{Name: "obs.sink_events_per_event", Unit: "count", Better: "lower"},
	{Name: "attr.sink_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "telemetry.sink_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "obs.flight_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "attr.report_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "rcache.key_ns_per_lookup", Unit: "ns/lookup", Better: "lower"},
	{Name: "rcache.get_hit_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "rcache.put_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "rcache.encode_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "rcache.decode_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "rcache.entry_bytes_per_job", Unit: "B/job", Better: "lower"},
	{Name: "rcache.disk_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "rcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "parallel.map_overhead_ns_per_cell", Unit: "ns/cell", Better: "lower"},
	{Name: "parallel.speedup_at_nproc", Unit: "x", Better: "higher"},
	{Name: "parallel.idle_share", Unit: "ratio", Better: "lower"},
	{Name: "simmr.sweep_overhead_ns_per_cell", Unit: "ns/cell", Better: "lower"},
	{Name: "simmr.batch_overhead_ns_per_spec", Unit: "ns/spec", Better: "lower"},
	{Name: "cli.process_overhead_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// countMetrics are the per-layer metrics that are pure counts of
// simulated work: identical on every run of one seed, on any machine.
var countMetrics = []string{
	"tracebin.bytes_per_job",
	"engine.events_per_job",
	"des.heap_high_water",
	"sched.calls_per_event",
	"sched.queue_len_mean",
	"obs.sink_events_per_event",
	"rcache.entry_bytes_per_job",
	"rcache.disk_bytes_per_op",
	"rcache.hit_ratio",
}

// quantile is the linearly interpolated q-quantile of xs (0 ≤ q ≤ 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles of Python's
// statistics.quantiles(xs, n=4) — the steadiness figure the driver
// computes over ten runs.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (cut(3) - cut(1)) / median(s)
}
