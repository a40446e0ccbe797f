// Command tracegen is the Synthetic TraceGen front end (§III-A): it
// generates replayable workload traces from statistical descriptions.
//
// Usage:
//
//	tracegen -kind facebook -n 100 -mean-interarrival 60 -out fb.json
//	tracegen -kind production -n 1148 -out prod.json
//	tracegen -kind facebook -n 50 -db traces -name fb50
//	tracegen -kind production -n 1000000 -format bin -stream -pool 512 -out big.strc
//
// -format bin writes the columnar binary `.strc` format instead of
// JSON; adding -stream generates jobs straight into the packed writer
// from a fixed template pool, so memory stays bounded no matter how
// many jobs are requested.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"simmr/internal/debugserver"
	"simmr/pkg/simmr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		kind    = flag.String("kind", "facebook", "workload kind: facebook, production, or multitenant")
		spec    = flag.String("spec", "", "JSON workload-description file (overrides -kind)")
		n       = flag.Int("n", 100, "number of jobs")
		meanIA  = flag.Float64("mean-interarrival", 60, "mean exponential inter-arrival time")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "", "output file (default stdout; required for -format bin)")
		format  = flag.String("format", "json", "output format: json or bin (`.strc` columnar binary)")
		stream  = flag.Bool("stream", false, "stream jobs into the packed writer in bounded memory (requires -format bin and -out)")
		pool    = flag.Int("pool", 64, "template-pool size for -stream: unique templates shared across jobs (0 = fresh template per job)")
		dlFrac  = flag.Float64("deadline-frac", 0, "fraction of streamed jobs carrying deadlines")
		dlSlack = flag.Float64("deadline-slack", 900, "mean deadline slack beyond arrival for streamed jobs, seconds")
		dbDir   = flag.String("db", "", "store into trace database directory (with -name)")
		dbName  = flag.String("name", "", "trace name inside -db")
		debug   = flag.String("debug-addr", "", "serve Prometheus /metrics (incl. simmr_build_info) and pprof on this address")
	)
	flag.Parse()
	if *format != "json" && *format != "bin" {
		return fmt.Errorf("unknown format %q (want json or bin)", *format)
	}
	if *format == "bin" && *out == "" {
		return fmt.Errorf("-format bin requires -out (the binary format is seekable, not a stream)")
	}
	if *stream && *format != "bin" {
		return fmt.Errorf("-stream requires -format bin")
	}

	var tel *simmr.Telemetry
	if *debug != "" {
		var err error
		tel, err = debugserver.Start("tracegen", *debug)
		if err != nil {
			return err
		}
	}

	rng := rand.New(rand.NewSource(*seed))

	if *stream {
		shapes, err := streamShapes(*kind)
		if err != nil {
			return err
		}
		cfg := simmr.StreamConfig{
			Name:             fmt.Sprintf("%s-%d", *kind, *n),
			Jobs:             *n,
			MeanInterArrival: *meanIA,
			TemplatePool:     *pool,
			DeadlineFraction: *dlFrac,
			DeadlineSlack:    *dlSlack,
			Shapes:           shapes,
		}
		s, err := simmr.NewTraceStream(cfg, rng)
		if err != nil {
			return err
		}
		defer tel.Span("run")()
		jobs, uniq, err := simmr.PackStream(*out, s)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "streamed %d-job trace (%d unique templates) to %s\n", jobs, uniq, *out)
		return nil
	}
	stopGen := tel.Span("run")
	var tr *simmr.Trace
	var err error
	switch {
	case *spec != "":
		data, rerr := os.ReadFile(*spec)
		if rerr != nil {
			return rerr
		}
		wd, perr := simmr.ParseWorkloadDesc(data)
		if perr != nil {
			return perr
		}
		tr, err = wd.Generate(rng)
	case *kind == "facebook":
		tr, err = simmr.GenerateTrace(simmr.FacebookShape(), *n, *meanIA, rng)
	case *kind == "production":
		tr, err = simmr.ProductionTrace(*n, rng)
	case *kind == "multitenant":
		tr, err = simmr.MultiTenantTrace(*n, rng)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	stopGen()
	if err != nil {
		return err
	}
	defer tel.Span("report")()

	if *dbDir != "" {
		if *dbName == "" {
			return fmt.Errorf("-db requires -name")
		}
		db, err := simmr.OpenTraceDB(*dbDir)
		if err != nil {
			return err
		}
		tr.Name = *dbName
		if err := db.Put(tr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "stored %d-job trace %q in %s\n", len(tr.Jobs), *dbName, *dbDir)
		return nil
	}

	if *format == "bin" {
		if err := simmr.WritePackedTrace(*out, tr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "packed %d-job trace to %s\n", len(tr.Jobs), *out)
		return nil
	}
	data, err := simmr.EncodeTrace(tr)
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d-job trace to %s\n", len(tr.Jobs), *out)
	return nil
}

// streamShapes maps a workload kind to its streaming shape set.
func streamShapes(kind string) ([]simmr.WeightedShape, error) {
	switch kind {
	case "facebook":
		return []simmr.WeightedShape{{Shape: simmr.FacebookShape(), Weight: 1}}, nil
	case "production":
		return simmr.ProductionShapes(), nil
	case "multitenant":
		return []simmr.WeightedShape{{Shape: simmr.MultiTenantShape(), Weight: 1}}, nil
	default:
		return nil, fmt.Errorf("kind %q has no streaming shapes (want facebook, production, or multitenant)", kind)
	}
}
