// Command benchreport runs the engine microbenchmarks (replay
// throughput, replay allocations, serial and parallel capacity sweeps)
// and writes the condensed metrics to BENCH_engine.json. `make bench`
// is the usual entry point.
//
// With -guard, benchreport instead reruns the replay benchmark and
// compares it against an existing baseline, exiting nonzero if
// allocations per replay regressed beyond benchkit.AllocTolerance or
// events/sec dropped below the -floor fraction of the baseline
// (default benchkit.ThroughputFloor, >10% regression) — `make
// bench-guard` is the usual entry point, and the check that keeps the
// pooled replay hot path fast and the no-sink observability path free.
// CI uses `make bench-guard-ci`, which loosens -floor for shared
// runners while keeping the deterministic allocation bound exact.
//
// Every run — bench or guard, pass or fail — also appends one JSON
// line to -history (default BENCH_history.jsonl), the longitudinal
// record of measured throughput and allocations over time.
//
// With -watch, benchreport runs no benchmarks at all: it reads the
// -history log, fits a rolling median per metric over the runs
// preceding the newest record, and exits nonzero if the newest record
// degraded any metric more than -watch-tol in its bad direction —
// naming the version range the regression entered in. This catches
// slow drift that stays inside the guard's per-run tolerance, and is
// cheap enough for CI to run on every push. Watch never appends to the
// history (it is an analysis, not a run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"simmr/internal/benchkit"
	"simmr/internal/buildinfo"
)

func main() {
	out := flag.String("o", "BENCH_engine.json", "output path for the metrics JSON")
	guard := flag.Bool("guard", false, "compare the replay benchmark against the -o baseline instead of rewriting it")
	floor := flag.Float64("floor", benchkit.ThroughputFloor,
		"guard throughput floor as a fraction of the baseline events/sec; <= 0 skips the throughput check")
	history := flag.String("history", "BENCH_history.jsonl", "append each run's measurements to this JSONL file; empty disables")
	watch := flag.Bool("watch", false, "analyze -history for rolling-median regressions instead of running benchmarks")
	watchWindow := flag.Int("watch-window", benchkit.WatchWindow, "number of prior runs the -watch rolling median is fit over")
	watchTol := flag.Float64("watch-tol", benchkit.WatchTolerance, "-watch degradation threshold vs the rolling median")
	flag.Parse()

	if *watch {
		rep, err := benchkit.Watch(*history, *watchWindow, *watchTol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: watch: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep.Summary)
		if len(rep.Regressions) > 0 {
			os.Exit(1)
		}
		return
	}

	now := time.Now().UTC().Format(time.RFC3339)
	if *guard {
		fmt.Fprintf(os.Stderr, "benchreport: guarding replay benchmark against %s...\n", *out)
		rep, err := benchkit.GuardWithFloor(*out, *floor)
		if rep.Summary != "" {
			fmt.Println(rep.Summary)
		}
		appendHistory(*history, benchkit.HistoryRecord{
			Time: now, Mode: "guard", Pass: err == nil,
			Version:              buildinfo.Version,
			EventsPerSec:         rep.EventsPerSec,
			AllocsPerOp:          rep.AllocsPerOp,
			BytesPerOp:           rep.BytesPerOp,
			SchedEventsPerSec:    rep.SchedEventsPerSec,
			SchedAllocsPerOp:     rep.SchedAllocsPerOp,
			SweepAllocsPerOp:     rep.SweepAllocsPerOp,
			SweepBytesPerOp:      rep.SweepBytesPerOp,
			BranchEventsPerSec:   rep.BranchEventsPerSec,
			BranchSpeedup:        rep.BranchSpeedup,
			AttrEventsPerSec:     rep.AttrEventsPerSec,
			FlightEventsPerSec:   rep.FlightEventsPerSec,
			FlightAllocsPerOp:    rep.FlightAllocsPerOp,
			ObservedEventsPerSec: rep.ObservedEventsPerSec,
			ObservedAllocsPerOp:  rep.ObservedAllocsPerOp,
			TraceLoadJobsPerSec:  rep.TraceLoadJobsPerSec,
			TraceLoadSpeedup:     rep.TraceLoadSpeedup,
			CacheHitJobsPerSec:   rep.CacheHitJobsPerSec,
			CacheWarmSpeedup:     rep.CacheWarmSpeedup,
			CacheColdOverheadPct: rep.CacheColdOverheadPct,
			BaselineEventsPerSec: rep.Baseline.EventsPerSec,
			BaselineAllocsPerOp:  rep.Baseline.ReplayAllocsPerOp,
			Floor:                *floor,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("bench-guard: OK")
		return
	}

	fmt.Fprintln(os.Stderr, "benchreport: running engine benchmarks (replay, serial sweep, parallel sweep)...")
	m := benchkit.Collect()
	m.GeneratedAt = now

	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	appendHistory(*history, benchkit.HistoryRecord{
		Time: now, Mode: "bench", Pass: true,
		Version:              buildinfo.Version,
		EventsPerSec:         m.EventsPerSec,
		AllocsPerOp:          m.ReplayAllocsPerOp,
		BytesPerOp:           m.ReplayBytesPerOp,
		SchedEventsPerSec:    m.SchedEventsPerSec,
		SchedAllocsPerOp:     m.SchedAllocsPerOp,
		SweepAllocsPerOp:     m.SweepAllocsPerOp,
		SweepBytesPerOp:      m.SweepBytesPerOp,
		ForkNsPerOp:          m.ForkNsPerOp,
		BranchEventsPerSec:   m.BranchEventsPerSec,
		BranchSpeedup:        m.BranchSpeedup,
		AttrEventsPerSec:     m.AttrEventsPerSec,
		FlightEventsPerSec:   m.FlightEventsPerSec,
		FlightAllocsPerOp:    m.FlightAllocsPerOp,
		ObservedEventsPerSec: m.ObservedEventsPerSec,
		ObservedAllocsPerOp:  m.ObservedAllocsPerOp,
		TraceLoadJobsPerSec:  m.TraceLoadJobsPerSec,
		TraceLoadSpeedup:     m.TraceLoadSpeedup,
		TraceBytesPerJob:     m.TraceBytesPerJob,
		CacheHitJobsPerSec:   m.CacheHitJobsPerSec,
		CacheWarmSpeedup:     m.CacheWarmSpeedup,
		CacheColdOverheadPct: m.CacheColdOverheadPct,
	})
	sweep := fmt.Sprintf("sweep %.3fs serial / %.3fs at GOMAXPROCS=%d (%.2fx)",
		m.SweepSerialSeconds, m.SweepParallelSeconds, m.NumCPU, m.SweepSpeedup)
	if m.SweepSpeedupSkipped {
		sweep = fmt.Sprintf("sweep %.3fs serial, speedup skipped (single CPU)", m.SweepSerialSeconds)
	}
	sweep += fmt.Sprintf(", %d allocs / %d B per warmed sweep", m.SweepAllocsPerOp, m.SweepBytesPerOp)
	fmt.Printf("wrote %s: %.0f events/sec, %d allocs/replay, sched %.0f indexed / %.0f scan events/sec (%.1fx at 1k jobs), fork %.0fns, branch %.0f events/sec (%.1fx vs independent), attr %.0f events/sec, flight %.0f events/sec at %d allocs/op, observed %.0f events/sec at %d allocs/op, trace load %.0f jobs/sec (%.1fx over JSON, %.1f B/job), cache %.0f hit jobs/sec (%.0fx warm, %.3f%% cold overhead), %s\n",
		*out, m.EventsPerSec, m.ReplayAllocsPerOp,
		m.SchedEventsPerSec, m.SchedScanEventsPerSec, m.SchedSpeedup,
		m.ForkNsPerOp, m.BranchEventsPerSec, m.BranchSpeedup, m.AttrEventsPerSec,
		m.FlightEventsPerSec, m.FlightAllocsPerOp,
		m.ObservedEventsPerSec, m.ObservedAllocsPerOp,
		m.TraceLoadJobsPerSec, m.TraceLoadSpeedup, m.TraceBytesPerJob,
		m.CacheHitJobsPerSec, m.CacheWarmSpeedup, m.CacheColdOverheadPct, sweep)
}

// appendHistory logs one run; a failure to log is a warning, never a
// benchmark failure.
func appendHistory(path string, rec benchkit.HistoryRecord) {
	if path == "" {
		return
	}
	if err := benchkit.AppendHistory(path, rec); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: history: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "benchreport: appended %s run to %s\n", rec.Mode, path)
}
