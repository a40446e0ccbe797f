// Package debugserver is the shared -debug-addr implementation behind
// the SimMR binaries: one call exposes the process's telemetry registry
// and the standard Go profiling endpoints for the lifetime of the
// process:
//
//	/metrics            Prometheus text exposition from the telemetry
//	                    registry (task-duration / completion
//	                    histograms, wait-attribution breakdowns, event
//	                    and slot counters, lifecycle spans, build info)
//	/debug/pprof/...    net/http/pprof profiles
//	/healthz            uniform liveness probe across all binaries
//	/buildinfo          version and Go runtime JSON
//	/runs...            the live ops plane: run snapshots, SSE progress
//	                    streams, and flight-recorder dumps (see runs.go)
//
// The returned registry must be wired into the run (Config.Sink via
// EngineSink, SweepConfig.Telemetry, or explicit Span calls); it is
// lock-free, so one instance aggregates any number of concurrent
// engines without a mutex.
package debugserver

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"sync/atomic"

	"simmr/internal/buildinfo"
	"simmr/internal/telemetry"
)

// registered guards the process-global endpoint registrations
// (http.Handle panics on a duplicate pattern).
var registered atomic.Bool

// Start serves the debug surface on addr until the process exits and
// returns the live registry, stamped with simmr_build_info. component
// names the binary in the startup line. At most one debug server per
// process: a second call fails.
func Start(component, addr string) (*telemetry.SimMetrics, error) {
	tel, _, err := start(component, addr)
	return tel, err
}

// start is Start returning the bound address, for tests binding port 0.
func start(component, addr string) (*telemetry.SimMetrics, string, error) {
	if !registered.CompareAndSwap(false, true) {
		return nil, "", fmt.Errorf("debug server: already started in this process")
	}
	tel := telemetry.NewSimMetrics()
	tel.StampBuildInfo(buildinfo.Version)
	http.Handle("/metrics", telemetry.Handler(tel.Registry()))
	registerOps(http.DefaultServeMux)
	registerRunMetrics(tel.Registry())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("debug server: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: debug endpoint at http://%s/metrics (runs at /runs, pprof at /debug/pprof/)\n", component, ln.Addr())
	go func() {
		// The server lives as long as the process; errors after a clean
		// exit are expected and ignored.
		_ = http.Serve(ln, nil)
	}()
	return tel, ln.Addr().String(), nil
}
