package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"simmr/internal/engine"
)

// report is the result line: the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are one run's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizing
	outDir   string
}

// sample is one timed operation.
type sample struct {
	wall, cpu float64 // seconds
	events    uint64
	rssMiB    float64 // of the child process, when the operation is one
}

//go:embed pins.json
var pinsJSON []byte

// pins are the oracle digests minted for one seed at the full sizing,
// with the engine semantics and architecture they were minted under.
type pins struct {
	SemanticsVersion int               `json:"semantics_version"`
	GOARCH           string            `json:"goarch"`
	Seed             int64             `json:"seed"`
	Digests          map[string]string `json:"digests"`
}

// pinStatus compares a workload's oracle digest with its pin. The pin
// binds only where it was minted: same seed, sizing, engine semantics
// and architecture; anywhere else the digest is reported as unpinned.
func pinStatus(p pins, o options, semantics int, goarch string, digest uint64) string {
	want, ok := p.Digests[o.workload]
	if !ok || o.sz.name != full.name || o.seed != p.Seed || semantics != p.SemanticsVersion || goarch != p.GOARCH {
		return "unpinned"
	}
	if want != fmt.Sprintf("%016x", digest) {
		return "MISMATCH"
	}
	return "pinned"
}

// gitRevision is the checkout's commit, when it is a git checkout.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runOne sets a workload up, measures it and prints its metrics and the
// result line to w.
func runOne(o options, w io.Writer) (report, error) {
	var rep report
	var setup func(env) (workload, error)
	for _, s := range setups {
		if s.name == o.workload {
			setup = s.setup
		}
	}
	if setup == nil {
		return rep, fmt.Errorf("unknown workload %q", o.workload)
	}
	e := env{sz: o.sz, seed: o.seed, nproc: runtime.GOMAXPROCS(0), outDir: filepath.Join(o.outDir, o.workload)}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return rep, err
	}
	fmt.Fprintf(w, "# simmr benchmark: workload=%s seed=%d sizing=%s trace=%t seconds=%g nproc=%d gomaxprocs=%d go=%s goarch=%s semantics=%d rev=%s load1=%s\n",
		o.workload, o.seed, o.sz.name, o.trace, o.seconds, runtime.NumCPU(), e.nproc,
		runtime.Version(), runtime.GOARCH, engine.SemanticsVersion, gitRevision(), loadAvg1())

	// Set up several times and report the median, so that work a later
	// change moves into set-up shows above the noise of one sample.
	var wl workload
	var setupS []float64
	for i := 0; i < o.sz.setupReps; i++ {
		if wl != nil {
			wl.close()
			wl = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if wl, err = setup(e); err != nil {
			return rep, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer wl.close()

	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return rep, fmt.Errorf("pins.json: %w", err)
	}
	status := pinStatus(p, o, engine.SemanticsVersion, runtime.GOARCH, wl.pin())
	fmt.Fprintf(w, "digest %s %016x %s\n", o.workload, wl.pin(), status)

	// Warm-up operations are not timed, but they are checked and counted.
	r := runner{wl: wl, name: o.workload, w: w}
	if _, err := r.loop(nil, 0, o.sz.warmups); err != nil {
		return rep, err
	}

	rep.Metrics = map[string]metricValue{}
	emit := func(defs []metricDef, values map[string]float64, n int) {
		for _, d := range defs {
			v := values[d.Name]
			rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
			fmt.Fprintf(w, "metric %-17s %-36s %14.6g %-9s n=%d\n", o.workload, d.Name, v, d.Unit, n)
		}
	}
	if !o.trace {
		samples, err := r.loop(nil, o.seconds, o.sz.minOps)
		if err != nil {
			return rep, err
		}
		values := endToEndValues(samples)
		values["setup_s"] = median(setupS)
		emit(endToEnd, values, len(samples))
	} else {
		values, n, err := r.traced(o, e)
		if err != nil {
			return rep, err
		}
		emit(perLayer, values, n)
	}
	rep.Attempted, rep.Failed = r.attempted, r.failed
	if status == "MISMATCH" {
		// The oracle itself disagrees with the digest minted for these
		// engine semantics: nothing it vouched for counts.
		rep.Failed = rep.Attempted
	}
	rep.Correct = rep.Failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return rep, nil
}

// walls are the operations' wall times.
func walls(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.wall
	}
	return out
}

// endToEndValues reduces the timed operations to the user-facing
// metrics (set-up time is added by the caller).
func endToEndValues(samples []sample) map[string]float64 {
	wall := walls(samples)
	var cpu, events, rss []float64
	for _, s := range samples {
		cpu = append(cpu, s.cpu)
		events = append(events, float64(s.events))
		rss = append(rss, s.rssMiB)
	}
	v := map[string]float64{
		"op_s_p50":     median(wall),
		"op_s_p75":     quantile(wall, 0.75),
		"cpu_s_per_op": median(cpu),
	}
	v["events_per_sec"] = median(events) / v["op_s_p50"]
	// The resident set of the process doing the work: the simmr child
	// when the operation is one, this process otherwise.
	if v["peak_rss_mb"] = median(rss); v["peak_rss_mb"] == 0 {
		v["peak_rss_mb"] = peakRSSMiB()
	}
	return v
}

// runner drives one set-up workload, one operation at a time (a closed
// loop with a single client).
type runner struct {
	wl                workload
	name              string
	w                 io.Writer
	attempted, failed int
}

// loop runs operations until both seconds have passed and minOps
// operations are done. Each operation is timed alone; its check and
// the housekeeping after it are not.
func (r *runner) loop(tr *tracer, seconds float64, minOps int) ([]sample, error) {
	var samples []sample
	begin := time.Now()
	for len(samples) < minOps || time.Since(begin).Seconds() < seconds {
		tr.nextOp()
		var out output
		var err error
		cpu0 := cpuSeconds()
		start := time.Now()
		tr.do("op", func() { out, err = r.wl.op(tr) })
		s := sample{wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0, events: out.events}
		if out.child != nil {
			s.cpu, s.rssMiB = rusageSeconds(out.child), rssMiB(out.child.Maxrss)
		}
		samples = append(samples, s)
		if err == nil {
			err = r.wl.check(out)
		}
		r.attempted++
		if err != nil {
			if r.failed++; r.failed <= 3 {
				fmt.Fprintf(os.Stderr, "%s: failed operation: %v\n", r.name, err)
			}
		}
		if err := r.wl.between(); err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
	}
	return samples, nil
}

// traced is the --trace 1 run: a quarter of the time untraced for
// reference, a quarter with spans recorded and the wrappers installed,
// then the per-layer probes. End-to-end metrics never come from here.
func (r *runner) traced(o options, e env) (map[string]float64, int, error) {
	minOps := min(o.sz.minOps, 5)
	ref, err := r.loop(nil, o.seconds/4, minOps)
	if err != nil {
		return nil, 0, err
	}
	tr := newTracer()
	ops, err := r.loop(tr, o.seconds/4, minOps)
	if err != nil {
		return nil, 0, err
	}
	tr.nextOp() // the probes' spans share one id of their own
	m, err := probeLayers(tr, r.wl.target(), o.sz.probeReps, e.outDir)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: probes: %w", r.name, err)
	}
	m["parallel.speedup_at_nproc"] = 1 // a serial workload's, unless layers measures one
	refP50 := median(walls(ref))
	if err := r.wl.layers(tr, m, refP50); err != nil {
		return nil, 0, fmt.Errorf("%s: layers: %w", r.name, err)
	}
	m["bench.trace_overhead_pct"] = 100 * (median(walls(ops)) - refP50) / refP50

	path := filepath.Join(o.outDir, "spans-"+o.workload+".json")
	if err := tr.write(path); err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(r.w, "spans: %d written to %s\n", len(tr.spans), path)
	for _, st := range tr.totals() {
		fmt.Fprintf(r.w, "span %-17s %-26s count=%-6d total_ms=%-10.3f self_ms=%.3f\n",
			r.name, st.name, st.count, st.total.Seconds()*1e3, st.self.Seconds()*1e3)
	}
	return m, len(ops), nil
}
