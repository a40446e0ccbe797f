// Command mrprofiler is the MRProfiler front end (§III-A): it processes
// JobTracker history logs into replayable job traces.
//
// Usage:
//
//	mrprofiler -logs history.log -out trace.json
//	mrprofiler -logs history.log -db traces -name prod-2011-04
package main

import (
	"flag"
	"fmt"
	"os"

	"simmr/internal/debugserver"
	"simmr/pkg/simmr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mrprofiler:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		logs   = flag.String("logs", "", "JobTracker history log file (required)")
		out    = flag.String("out", "", "output JSON trace file (default stdout)")
		dbDir  = flag.String("db", "", "store into trace database directory (with -name)")
		dbName = flag.String("name", "", "trace name inside -db")
		debug  = flag.String("debug-addr", "", "serve Prometheus /metrics (incl. simmr_build_info) and pprof on this address")
	)
	flag.Parse()
	if *logs == "" {
		return fmt.Errorf("need -logs FILE")
	}
	var tel *simmr.Telemetry
	if *debug != "" {
		var err error
		tel, err = debugserver.Start("mrprofiler", *debug)
		if err != nil {
			return err
		}
	}

	f, err := os.Open(*logs)
	if err != nil {
		return err
	}
	defer f.Close()
	stopProfile := tel.Span("run")
	tr, err := simmr.ProfileLogs(f)
	stopProfile()
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
		fmt.Fprintf(os.Stderr, "profiled %d jobs into %s/%s\n", len(tr.Jobs), *dbDir, *dbName)
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
	fmt.Fprintf(os.Stderr, "profiled %d jobs into %s\n", len(tr.Jobs), *out)
	return nil
}
