package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/pkg/simmr"
)

// benchmarkJSON is the driver's contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables and
// defaults compiled into the benchmark.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, --seconds defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(setups) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(setups))
	}
	for i, w := range b.Workloads {
		if w.Name != setups[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, setups[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	for _, c := range countMetrics {
		if !seen[c] {
			t.Errorf("count metric %q is not a per-layer metric", c)
		}
	}
}

// printedMetrics parses the `metric <workload> <name> <value> <unit> n=<k>`
// lines of a run's output into name → unit, failing on a repeat.
func printedMetrics(t *testing.T, workload, out string) map[string]string {
	t.Helper()
	units := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || f[0] != "metric" {
			continue
		}
		if f[1] != workload {
			t.Errorf("metric line for %q in a %q run: %s", f[1], workload, line)
		}
		if _, dup := units[f[2]]; dup {
			t.Errorf("%s: metric %s printed twice", workload, f[2])
		}
		units[f[2]] = f[4]
	}
	return units
}

// TestSmokeRuns runs every workload at the smoke sizing, untraced and
// traced twice: every metric of BENCHMARK.json is printed exactly once
// with its unit and is in the result line, no operation fails, the
// span file is written, and the count metrics repeat exactly.
func TestSmokeRuns(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := options{workload: w.Name, seed: 2, sz: smoke, outDir: t.TempDir()}
			run := func(trace bool, want []metricDef) report {
				o.trace = trace
				var buf bytes.Buffer
				rep, err := runOne(o, &buf)
				if err != nil {
					t.Fatalf("trace=%t: %v\n%s", trace, err, buf.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < smoke.minOps {
					t.Errorf("trace=%t: correct=%t attempted=%d failed=%d", trace, rep.Correct, rep.Attempted, rep.Failed)
				}
				units := printedMetrics(t, w.Name, buf.String())
				if len(units) != len(want) || len(rep.Metrics) != len(want) {
					t.Errorf("trace=%t: %d metrics printed, %d in the result line, want %d", trace, len(units), len(rep.Metrics), len(want))
				}
				for _, d := range want {
					if units[d.Name] != d.Unit || rep.Metrics[d.Name].Unit != d.Unit {
						t.Errorf("trace=%t: %s printed with unit %q, result line %q, want %q",
							trace, d.Name, units[d.Name], rep.Metrics[d.Name].Unit, d.Unit)
					}
					if v := rep.Metrics[d.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("trace=%t: %s = %v", trace, d.Name, v)
					}
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var last report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Errorf("trace=%t: last line is not the result object: %v", trace, err)
				}
				return rep
			}
			e2e := run(false, b.EndToEnd)
			for _, d := range b.EndToEnd {
				if e2e.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, e2e.Metrics[d.Name].Value)
				}
			}
			first, second := run(true, b.PerLayer), run(true, b.PerLayer)
			for _, c := range countMetrics {
				if first.Metrics[c] != second.Metrics[c] {
					t.Errorf("count %s: %v then %v", c, first.Metrics[c].Value, second.Metrics[c].Value)
				}
			}
			if _, err := os.Stat(o.outDir + "/spans-" + w.Name + ".json"); err != nil {
				t.Error(err)
			}
			// bench.trace_overhead_pct is reported, not asserted.
			t.Logf("bench.trace_overhead_pct = %.1f", second.Metrics["bench.trace_overhead_pct"].Value)
			if w.Name == "session-observed" && second.Metrics["rcache.hit_ratio"].Value != 0.75 {
				t.Errorf("rcache.hit_ratio = %v, want 0.75", second.Metrics["rcache.hit_ratio"].Value)
			}
		})
	}
}

// TestOraclesCatchCorruption flips one number in each workload's
// output and requires the oracle to refuse it.
func TestOraclesCatchCorruption(t *testing.T) {
	for _, s := range setups {
		t.Run(s.name, func(t *testing.T) {
			w, err := s.setup(env{sz: smoke, seed: 1, nproc: runtime.GOMAXPROCS(0), outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			out, err := w.op(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.check(out); err != nil {
				t.Fatalf("untouched output refused: %v", err)
			}
			switch {
			case len(out.results) > 0:
				last := out.results[len(out.results)-1]
				last.Jobs[len(last.Jobs)/2].Finish += 1e-9
			case len(out.points) > 0:
				out.points[len(out.points)-1].MaxCompletion += 1e-9
			default:
				out.summary = strings.Replace(out.summary, " events", "0 events", 1)
			}
			if err := w.check(out); err == nil {
				t.Error("corrupted output accepted")
			}
		})
	}
}

// TestSessionCountsCacheTraffic: the right results with the wrong
// number of cache hits are a failed operation too.
func TestSessionCountsCacheTraffic(t *testing.T) {
	w, err := setupSession(env{sz: smoke, seed: 1, nproc: runtime.GOMAXPROCS(0), outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 2; op++ { // cold, then 12 hits / 4 misses
		out, err := w.op(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.check(out); err != nil {
			t.Fatal(err)
		}
		out.hits--
		if err := w.check(out); err == nil {
			t.Errorf("operation %d: wrong hit count accepted", op)
		}
		if err := w.between(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWrappedPolicyIsTransparent: a wrapped policy replays digest-
// identically to the bare one for the paper's three policies and their
// indexed forms, and shows the engine and the cache the same optional
// interfaces — it must not hide BatchPolicy, ArrivalAware or the
// fingerprint.
func TestWrappedPolicyIsTransparent(t *testing.T) {
	cfg := simmr.DefaultReplayConfig()
	tr, err := backlogTrace(smoke.backlogJobs, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var policies []simmr.Policy
	for _, p := range paperPolicies() {
		policies = append(policies, p, simmr.Indexed(p))
	}
	for _, p := range policies {
		bare, err := simmr.Replay(cfg, tr, p)
		if err != nil {
			t.Fatal(err)
		}
		var st callStats
		wp := wrapPolicy(p, &st)
		wrapped, err := simmr.Replay(cfg, tr, wp)
		if err != nil {
			t.Fatal(err)
		}
		if resultDigest(bare) != resultDigest(wrapped) {
			t.Errorf("%T: wrapped replay differs from bare", p)
		}
		if st.calls == 0 || st.ns == 0 {
			t.Errorf("%T: wrapper saw %d calls, %v", p, st.calls, st.ns)
		}
		_, batch := p.(sched.BatchPolicy)
		_, wbatch := wp.(sched.BatchPolicy)
		_, arrival := p.(sched.ArrivalAware)
		_, warrival := wp.(sched.ArrivalAware)
		if batch != wbatch || arrival != warrival {
			t.Errorf("%T: BatchPolicy %t→%t, ArrivalAware %t→%t", p, batch, wbatch, arrival, warrival)
		}
		fp, ok := sched.FingerprintOf(p)
		wfp, wok := sched.FingerprintOf(wp)
		if fp != wfp || ok != wok {
			t.Errorf("%T: fingerprint %x,%t → %x,%t", p, fp, ok, wfp, wok)
		}
		if batch && st.queueLen == 0 {
			t.Errorf("%T: batch path never handed the wrapper a queue", p)
		}
	}
}

// TestWrappedSinkIsTransparent: the inner sink sees the same stream
// through the wrapper, and the wrapper keeps the run counters.
func TestWrappedSinkIsTransparent(t *testing.T) {
	cfg := simmr.DefaultReplayConfig()
	tr, err := sparseTrace("sink", smoke.sessionJobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	bare := &obs.RecordSink{}
	cfg.Sink = bare
	res, err := simmr.Replay(cfg, tr, simmr.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	inner := &obs.RecordSink{}
	var st callStats
	ws := wrapSink(inner, &st)
	cfg.Sink = ws
	if _, err := simmr.Replay(cfg, tr, simmr.NewFIFO()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, inner) {
		t.Error("the wrapped sink recorded a different stream")
	}
	if ws.counters.Events != res.Events || st.calls == 0 {
		t.Errorf("wrapper counters: %d events (replay had %d), %d calls", ws.counters.Events, res.Events, st.calls)
	}
}

func TestPinStatus(t *testing.T) {
	p := pins{SemanticsVersion: 1, GOARCH: "amd64", Seed: 1, Digests: map[string]string{"sweep-grid": "00000000000000ab"}}
	o := options{workload: "sweep-grid", seed: 1, sz: full}
	for _, c := range []struct {
		name      string
		o         options
		semantics int
		goarch    string
		digest    uint64
		want      string
	}{
		{"match", o, 1, "amd64", 0xab, "pinned"},
		{"drift at the same semantics", o, 1, "amd64", 0xac, "MISMATCH"},
		{"new semantics", o, 2, "amd64", 0xac, "unpinned"},
		{"other architecture", o, 1, "arm64", 0xac, "unpinned"},
		{"held-out seed", options{workload: "sweep-grid", seed: 2, sz: full}, 1, "amd64", 0xac, "unpinned"},
		{"smoke sizing", options{workload: "sweep-grid", seed: 1, sz: smoke}, 1, "amd64", 0xac, "unpinned"},
		{"no pin", options{workload: "bigtrace-cold", seed: 1, sz: full}, 1, "amd64", 0xac, "unpinned"},
	} {
		if got := pinStatus(p, c.o, c.semantics, c.goarch, c.digest); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	var shipped pins
	if err := json.Unmarshal(pinsJSON, &shipped); err != nil {
		t.Fatal(err)
	}
	for _, s := range setups {
		if len(shipped.Digests[s.name]) != 16 {
			t.Errorf("pins.json has no digest for %s", s.name)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.nextOp()
	outer := tr.do("op", func() {
		tr.do("layer.A", func() { time.Sleep(2 * time.Millisecond) })
		tr.do("layer.A", func() { time.Sleep(2 * time.Millisecond) })
		time.Sleep(time.Millisecond)
	})
	tr.annotate(outer, "k", 1)
	if len(tr.spans) != 3 || tr.spans[1].parent != outer || tr.spans[2].op != 1 {
		t.Fatalf("spans: %+v", tr.spans)
	}
	dur := func(i int) time.Duration { return tr.spans[i].end - tr.spans[i].start }
	for _, st := range tr.totals() {
		switch st.name {
		case "op":
			if st.count != 1 || st.total != dur(0) || st.self != dur(0)-dur(1)-dur(2) || st.self < time.Millisecond {
				t.Errorf("op: %+v", st)
			}
		case "layer.A":
			if st.count != 2 || st.total != dur(1)+dur(2) || st.self != st.total {
				t.Errorf("layer.A: %+v", st)
			}
		}
	}
	var untraced *tracer
	ran := false
	if id := untraced.do("x", func() { ran = true }); id != -1 || !ran {
		t.Error("nil tracer must run f and record nothing")
	}
	path := t.TempDir() + "/spans.json"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]any
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Ph != "X" {
		t.Errorf("span file: %v, %d events", err, len(doc.TraceEvents))
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(xs, n=4), which the driver uses.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{1.05, 0.98, 1.00, 1.20, 0.99, 1.01, 1.02, 0.97, 1.03, 1.10}
	// statistics.quantiles → [0.9875, 1.015, 1.0625]; median 1.015.
	if got, want := quartileSpread(xs), (1.0625-0.9875)/1.015; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.75); got != 4 {
		t.Errorf("quantile 0.75 = %v", got)
	}
}
