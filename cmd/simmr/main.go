// Command simmr replays a MapReduce workload trace through the SimMR
// simulator engine (or the Mumak-style baseline) with a chosen
// scheduling policy and prints per-job completion times.
//
// Usage:
//
//	simmr -trace trace.json [-policy fifo|maxedf|minedf|fair|capacity]
//	      [-map-slots 64] [-reduce-slots 64] [-slowstart 0.05]
//	      [-engine simmr|mumak] [-db dir -name trace]
//	      [-debug-addr localhost:6060]
//
// The `trace run` subcommand replays a workload with the observability
// sinks attached and exports a Chrome trace-event file:
//
//	simmr trace run -trace trace.json -out trace_events.json
//	      [-slot-timeline slots.tsv] [-policy ...] [-map-slots ...]
//
// The `trace whatif` subcommand replays the workload once up to a
// branch point, forks the paused engine into one branch
// per what-if scenario (always a control, plus -policies swaps and
// -deadline-scale rescales), and prints a comparison table:
//
//	simmr trace whatif -trace trace.json -at 0.5
//	      [-policies minedf,maxedf] [-deadline-scale 0.5,2]
//	      [-policy fifo] [-map-slots ...] [-workers N]
//
// -debug-addr serves live run telemetry — Prometheus /metrics — and the
// net/http/pprof profiling endpoints while a replay runs. It also mounts the ops
// plane: every replay, sweep, and what-if fan-out registers itself at
// /runs with live progress, an SSE stream, and flight-recorder
// post-mortems. The `ops` subcommand is the matching client:
//
//	simmr ops list  [-addr localhost:6060]    # all runs the process knows
//	simmr ops watch [run-id] [-addr ...]      # tail one run live (default: latest)
//
// -linger keeps the process (and its /runs state) up after the run
// completes so scrapers and watchers can read the final state.
//
// -cache-dir/-cache-mem (on the replay path, -sweep, and `trace run`)
// enable the content-addressed replay result cache: identical
// (trace, config, policy) inputs are served from the cache instead of
// re-simulated, and summary lines report "cache: N hits, M misses".
// A hit replays no events, so the event exports (-timeline, and `trace
// run`'s -out and -slot-timeline) are skipped with a line saying so.
// The `cache` subcommand maintains an on-disk cache directory:
//
//	simmr cache info  -cache-dir DIR    # entry count and bytes
//	simmr cache clear -cache-dir DIR    # delete all entries
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"simmr/internal/debugserver"
	"simmr/internal/metrics"
	"simmr/internal/plan"
	"simmr/internal/runs"
	"simmr/pkg/simmr"
)

func main() {
	// Subcommands come before the flag-only interface; everything else
	// falls through to the classic replay path.
	sub := ""
	if len(os.Args) > 1 {
		sub = os.Args[1]
	}
	var err error
	switch sub {
	case "trace":
		err = runTraceCmd(os.Args[2:])
	case "cache":
		err = runCacheCmd(os.Args[2:])
	case "ops":
		err = runOpsCmd(os.Args[2:])
	default:
		err = run()
	}
	if err != nil {
		// pkg/simmr's errors carry the prefix already: print it once.
		fmt.Fprintln(os.Stderr, "simmr:", strings.TrimPrefix(err.Error(), "simmr: "))
		os.Exit(1)
	}
}

func run() error {
	var (
		engineKind = flag.String("engine", "simmr", "simulator: simmr or mumak (mumak: one replay, no -sweep, cache or exports)")
		verbose    = flag.Bool("v", false, "print per-job lines")
		timeline   = flag.String("timeline", "", "write a task-progress timeline TSV (simmr engine only; an event export, skipped on a cache hit)")
		step       = flag.Float64("step", 0, "timeline sample step in seconds (default: makespan/200)")
		info       = flag.Bool("info", false, "print trace statistics and exit without simulating")
		sweep      = flag.String("sweep", "", "comma-separated map-slot counts: replay across cluster sizes and exit")
		shard      = flag.String("shard", "", "replay only shard I of N sweep cells, as I/N; shard outputs carry cell indices for merging")
		jsonOut    = flag.Bool("json", false, "emit per-job results as JSON lines (simmr engine only)")
		linger     = flag.Duration("linger", 0, "with -debug-addr: keep the process (and its /runs state) alive this long after the run completes, for scrapers and smoke tests")
	)
	rf := addReplayFlags(flag.CommandLine)
	cf := addCacheFlags(flag.CommandLine)
	flag.Parse()
	// The engine is settled before the trace is loaded: a mistyped name
	// must not cost a load, print a SimMR sweep or exit 0 behind -info.
	switch *engineKind {
	case "simmr":
	case "mumak":
		if *timeline != "" || *jsonOut || *sweep != "" || *shard != "" || cf.set() {
			return fmt.Errorf("-timeline, -json, -sweep, -shard, -cache-dir and -cache-mem need -engine simmr")
		}
	default:
		return fmt.Errorf("unknown engine %q (simmr or mumak)", *engineKind)
	}
	// A sweep's cells take their slot counts from -sweep alone.
	if *sweep != "" {
		var slots bool
		flag.Visit(func(f *flag.Flag) { slots = slots || f.Name == "map-slots" || f.Name == "reduce-slots" })
		if slots {
			return fmt.Errorf("-sweep sets both slot counts of each cell: drop -map-slots and -reduce-slots")
		}
	}

	tel, tr, err := rf.open()
	if tel != nil {
		defer holdOpen(*linger)
	}
	if err != nil {
		return err
	}
	if *info {
		printInfo(tr)
		return nil
	}
	policy, err := rf.policy()
	if err != nil {
		return err
	}
	cache := cf.open(tel)
	if *sweep != "" {
		return runSweep(tr, *sweep, *shard, policy, *rf.slowstart, tel, cache)
	}
	if *shard != "" {
		return fmt.Errorf("-shard only applies to -sweep")
	}

	if *engineKind == "simmr" {
		cfg := rf.config()
		var tl *simmr.TimelineSink
		if *timeline != "" {
			tl = simmr.NewTimelineSink()
			cfg.Sink = tl
		}
		// The summary line reads the Result's totals only; -v and -json
		// read its jobs.
		replay := plan.Totals
		if *verbose || *jsonOut {
			replay = plan.One
		}
		stopRun := tel.Span("run")
		res, hit, err := replay(opsOptions(tel, cache), runs.KindReplay, cfg, tr, policy)
		stopRun()
		if err != nil {
			return err
		}
		defer tel.Span("report")()
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			for _, j := range res.Jobs {
				if err := enc.Encode(map[string]any{
					"id": j.ID, "name": j.Name, "arrival": j.Arrival,
					"finish": j.Finish, "completion": j.CompletionTime(),
					"deadline": j.Deadline, "missed": j.ExceededDeadline(),
				}); err != nil {
					return err
				}
			}
			return nil
		}
		if *verbose {
			for _, j := range res.Jobs {
				missed := ""
				if j.ExceededDeadline() {
					missed = "\tMISSED-DEADLINE"
				}
				fmt.Printf("job %d\t%s\tarrival %.1f\tcompletion %.1f%s\n",
					j.ID, j.Name, j.Arrival, j.CompletionTime(), missed)
			}
		}
		if tl != nil && !hit {
			if err := writeTimeline(*timeline, tl.Spans(), res.Makespan, *step); err != nil {
				return err
			}
		}
		fmt.Printf("%d jobs, makespan %.1f s, %d events, policy %s\n",
			len(tr.Jobs), res.Makespan, res.Events, policy.Name())
		printCacheLine(cache)
		if tl != nil && hit {
			printSkippedExports(*timeline)
		}
	} else {
		res, err := simmr.ReplayMumak(simmr.DefaultMumakConfig(), tr, policy)
		if err != nil {
			return err
		}
		if *verbose {
			for _, j := range res.Jobs {
				fmt.Printf("job %d\t%s\tarrival %.1f\tcompletion %.1f\n",
					j.ID, j.Name, j.Arrival, j.CompletionTime())
			}
		}
		fmt.Printf("%d jobs, makespan %.1f s, %d events, policy %s (mumak baseline)\n",
			len(res.Jobs), res.Makespan, res.Events, policy.Name())
	}
	return nil
}

// writeTimeline renders a Figure 1/2-style task-progress series for the
// whole replayed workload: how many tasks were in their map, shuffle and
// reduce phase at each sample time.
func writeTimeline(path string, spans []simmr.SlotSpan, makespan, step float64) error {
	var maps, shuffles, reduces []metrics.Interval
	for _, s := range spans {
		if s.Reduce {
			shuffles = append(shuffles, metrics.Interval{Start: s.Start, End: s.ShuffleEnd})
			reduces = append(reduces, metrics.Interval{Start: s.ShuffleEnd, End: s.End})
		} else {
			maps = append(maps, metrics.Interval{Start: s.Start, End: s.End})
		}
	}
	if step <= 0 {
		step = makespan / 200
		if step <= 0 {
			step = 1
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "time\tmap\tshuffle\treduce")
	for _, p := range metrics.Timeline(maps, shuffles, reduces, makespan, step) {
		fmt.Fprintf(f, "%.1f\t%d\t%d\t%d\n", p.T, p.Map, p.Shuffle, p.Reduce)
	}
	return nil
}

// runSweep replays the trace across a grid of square cluster sizes,
// under -policy and -slowstart as a single replay would.
// When telemetry is live (-debug-addr), every concurrent cell reports
// into the shared registry — each cell's sink writes it once per block
// of events, so aggregation costs no mutex. With -shard I/N only
// this process's residue class of the grid runs (each process can
// mmap one shared packed trace read-only); the output gains a cell
// column so shard outputs merge back into grid order.
func runSweep(tr *simmr.Trace, spec, shard string, policy simmr.Policy, slowstart float64, tel *simmr.Telemetry, cache *simmr.Cache) error {
	var counts []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return fmt.Errorf("bad sweep count %q", part)
		}
		counts = append(counts, n)
	}
	// The ops plane rides the debug server: /runs and `simmr ops watch`
	// follow the sweep, with a flight recorder per simulated replay for
	// post-mortems.
	o := opsOptions(tel, cache)
	scfg := simmr.SweepConfig{MapSlotCounts: counts, Policy: policy, MinMapPercentCompleted: slowstart,
		Telemetry: tel, Cache: cache, Runs: o.Runs, Flight: o.Flight}
	if shard != "" {
		i, n, _ := strings.Cut(shard, "/")
		var err error
		if scfg.ShardIndex, err = strconv.Atoi(i); err == nil {
			scfg.Shards, err = strconv.Atoi(n)
		}
		if err != nil || scfg.ShardIndex < 0 || scfg.ShardIndex >= scfg.Shards {
			return fmt.Errorf("bad -shard %q (want I/N, 0 <= I < N)", shard)
		}
	}
	stopRun := tel.Span("run")
	points, err := simmr.CapacitySweep(tr, scfg)
	stopRun()
	if err != nil {
		return err
	}
	defer tel.Span("report")()
	if shard != "" {
		fmt.Println("cell\tmap_slots\treduce_slots\tmakespan_s\tmean_completion_s\tmissed_deadlines")
		for _, p := range points {
			fmt.Printf("%d\t%d\t%d\t%.1f\t%.1f\t%d\n",
				p.Cell, p.MapSlots, p.ReduceSlots, p.Makespan, p.MeanCompletion, p.DeadlinesMissed)
		}
		printCacheLine(cache)
		return nil
	}
	fmt.Println("map_slots\treduce_slots\tmakespan_s\tmean_completion_s\tmissed_deadlines")
	for _, p := range points {
		fmt.Printf("%d\t%d\t%.1f\t%.1f\t%d\n",
			p.MapSlots, p.ReduceSlots, p.Makespan, p.MeanCompletion, p.DeadlinesMissed)
	}
	printCacheLine(cache)
	return nil
}

// printInfo renders the operator summary of a trace.
func printInfo(tr *simmr.Trace) {
	s := tr.Stats()
	fmt.Printf("trace %q: %d jobs (%d with deadlines), %d maps, %d reduces\n",
		tr.Name, s.Jobs, s.WithDeadlines, s.TotalMaps, s.TotalReduces)
	fmt.Printf("arrival span %.1f s, serial runtime %.1f h\n", s.Span, s.SerialRuntime/3600)
	fmt.Println("\napp            jobs   maps  reduces  mean-map  mean-shuffle  mean-reduce")
	for _, name := range s.AppNames {
		a := s.Apps[name]
		fmt.Printf("%-14s %4d %6d %8d %8.1fs %12.1fs %11.1fs\n",
			name, a.Jobs, a.Maps, a.Reduces, a.MeanMapDur, a.MeanShuffleDur, a.MeanReduceDur)
	}
}

// replayFlags are the flags every replaying command shares: which
// trace, under which policy, on what cluster, watched from where.
type replayFlags struct {
	trace, db, name, policyName, shares, debugAddr *string
	mapSlots, reduceSlots                          *int
	slowstart                                      *float64
}

func addReplayFlags(fs *flag.FlagSet) replayFlags {
	return replayFlags{
		trace:       fs.String("trace", "", "path to a trace file (JSON, or packed .strc)"),
		db:          fs.String("db", "", "trace database directory (with -name)"),
		name:        fs.String("name", "", "trace name inside -db"),
		policyName:  fs.String("policy", "fifo", "scheduling policy: fifo, maxedf, minedf, fair, capacity"),
		shares:      fs.String("capacity-shares", "0.5,0.5", "comma-separated queue shares for -policy capacity"),
		mapSlots:    fs.Int("map-slots", 64, "cluster map slots"),
		reduceSlots: fs.Int("reduce-slots", 64, "cluster reduce slots"),
		slowstart:   fs.Float64("slowstart", 0.05, "fraction of maps completed before reduces launch"),
		debugAddr:   fs.String("debug-addr", "", "serve Prometheus /metrics, /runs and pprof on this address (e.g. localhost:6060)"),
	}
}

// open loads the trace. With -debug-addr the debug server comes up
// first, so its lifecycle spans cover the load stage too; the telemetry
// is returned even when the load fails.
func (f replayFlags) open() (*simmr.Telemetry, *simmr.Trace, error) {
	var tel *simmr.Telemetry
	if *f.debugAddr != "" {
		var err error
		if tel, err = debugserver.Start("simmr", *f.debugAddr); err != nil {
			return nil, nil, err
		}
	}
	stopLoad := tel.Span("load")
	tr, err := loadTrace(*f.trace, *f.db, *f.name)
	stopLoad()
	return tel, tr, err
}

func (f replayFlags) policy() (simmr.Policy, error) { return policyByName(*f.policyName, *f.shares) }

func (f replayFlags) config() simmr.ReplayConfig {
	return simmr.ReplayConfig{MapSlots: *f.mapSlots, ReduceSlots: *f.reduceSlots, MinMapPercentCompleted: *f.slowstart}
}

func loadTrace(path, dbDir, dbName string) (*simmr.Trace, error) {
	switch {
	case path != "":
		// Sniff the magic so packed `.strc` traces load via mmap no
		// matter their extension; anything else goes to the JSON
		// decoder. Callers never hold more than the packed pages plus
		// the decoded job table in memory.
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		var head [4]byte
		n, _ := io.ReadFull(f, head[:])
		f.Close()
		if n == len(head) && simmr.IsPackedTrace(head[:]) {
			return simmr.OpenPackedTrace(path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return simmr.DecodeTrace(data)
	case dbDir != "" && dbName != "":
		db, err := simmr.OpenTraceDB(dbDir)
		if err != nil {
			return nil, err
		}
		return db.Get(dbName)
	default:
		return nil, fmt.Errorf("need -trace FILE or -db DIR -name NAME")
	}
}

func policyByName(name, shares string) (simmr.Policy, error) {
	switch strings.ToLower(name) {
	case "fifo":
		return simmr.NewFIFO(), nil
	case "maxedf":
		return simmr.NewMaxEDF(), nil
	case "minedf":
		return simmr.NewMinEDF(), nil
	case "fair":
		return simmr.NewFair(), nil
	case "capacity":
		var vals []float64
		for _, part := range strings.Split(shares, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return nil, fmt.Errorf("bad capacity share %q", part)
			}
			vals = append(vals, v)
		}
		return simmr.NewCapacity(vals), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
