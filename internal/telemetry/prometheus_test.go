package telemetry

import (
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/rcache"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusFormat pins the exposition primitives on a small
// hand-built registry: HELP/TYPE lines, label rendering, cumulative
// buckets, +Inf, _sum/_count, and float formatting.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("fmt_ops_total", "Operations.")
	vec := r.NewCounterVec("fmt_by_kind_total", "By kind.", "kind", []string{"a", "b"})
	g := r.NewMaxGauge("fmt_high_water", "Peak.")
	// Binary-exact bounds and observations keep the rendered _sum stable.
	h := r.NewHistogram("fmt_latency_seconds", "Latency.", []float64{0.25, 2.5, 10})

	c.Add(3)
	c.Add(4)
	vec[0].Inc()
	vec[1].Add(5)
	g.Observe(1.5)
	g.Observe(0.5)
	h.Observe(0.25) // le="0.25": bounds are inclusive
	h.Observe(1)    // le="2.5"
	h.Observe(99)   // +Inf

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP fmt_ops_total Operations.
# TYPE fmt_ops_total counter
fmt_ops_total 7
# HELP fmt_by_kind_total By kind.
# TYPE fmt_by_kind_total counter
fmt_by_kind_total{kind="a"} 1
fmt_by_kind_total{kind="b"} 5
# HELP fmt_high_water Peak.
# TYPE fmt_high_water gauge
fmt_high_water 1.5
# HELP fmt_latency_seconds Latency.
# TYPE fmt_latency_seconds histogram
fmt_latency_seconds_bucket{le="0.25"} 1
fmt_latency_seconds_bucket{le="2.5"} 2
fmt_latency_seconds_bucket{le="10"} 2
fmt_latency_seconds_bucket{le="+Inf"} 3
fmt_latency_seconds_sum 100.25
fmt_latency_seconds_count 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "x")
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE x_total counter") {
		t.Errorf("body missing TYPE line:\n%s", rec.Body.String())
	}
}

// simulateTwoJobs drives two engine sinks with a hand-built event
// stream: job 1 with one map and a first-wave filler reduce patched at
// map-stage completion, job 2 with two maps and a regular reduce. The
// derived durations land in known buckets.
func simulateTwoJobs(t *testing.T, tel *SimMetrics) {
	a := tel.EngineSink()
	b := tel.EngineSink()

	// Job 1 on sink a: map 0..20 (le=25); filler reduce starts at 20,
	// patched to end at 80 (duration 60, le=100); completion 80 (le=100).
	a.Event(obs.Event{Time: 0, Kind: obs.KindJobArrival, JobID: 1, Task: -1})
	a.Event(obs.Event{Time: 0, Kind: obs.KindMapSlotAlloc, JobID: 1, Task: -1})
	a.Event(obs.Event{Time: 0, Kind: obs.KindMapTaskStart, JobID: 1, Task: 0, End: 20})
	a.Event(obs.Event{Time: 20, Kind: obs.KindMapTaskFinish, JobID: 1, Task: 0})
	a.Event(obs.Event{Time: 20, Kind: obs.KindMapStageComplete, JobID: 1, Task: -1})
	a.Event(obs.Event{Time: 20, Kind: obs.KindReduceSlotAlloc, JobID: 1, Task: -1})
	a.Event(obs.Event{Time: 20, Kind: obs.KindReduceTaskStart, JobID: 1, Task: 0,
		End: math.Inf(1), ShuffleEnd: math.Inf(1)})
	a.Event(obs.Event{Time: 20, Kind: obs.KindFillerPatch, JobID: 1, Task: 0, End: 80, ShuffleEnd: 30})
	a.Event(obs.Event{Time: 80, Kind: obs.KindReduceTaskFinish, JobID: 1, Task: 0})
	a.Event(obs.Event{Time: 80, Kind: obs.KindJobDeparture, JobID: 1, Task: -1})
	a.RunEnd(obs.Counters{Events: 12, HeapHighWater: 4, FillerPatches: 1,
		MapSlotAllocs: 1, ReduceSlotAllocs: 1, Jobs: 1, Makespan: 80})

	// Job 2 on sink b: maps of 4s (le=5) and 30s (le=50), reduce of 200s
	// (le=250), one preemption; completion 240 (le=250).
	b.Event(obs.Event{Time: 10, Kind: obs.KindJobArrival, JobID: 2, Task: -1})
	b.Event(obs.Event{Time: 10, Kind: obs.KindMapTaskStart, JobID: 2, Task: 0, End: 14})
	b.Event(obs.Event{Time: 10, Kind: obs.KindMapTaskStart, JobID: 2, Task: 1, End: 40})
	b.Event(obs.Event{Time: 12, Kind: obs.KindPreempt, JobID: 2, Task: 1})
	b.Event(obs.Event{Time: 40, Kind: obs.KindReduceTaskStart, JobID: 2, Task: 0, End: 240, ShuffleEnd: 50})
	b.Event(obs.Event{Time: 250, Kind: obs.KindJobDeparture, JobID: 2, Task: -1})
	b.RunEnd(obs.Counters{Events: 9, HeapHighWater: 3, Preemptions: 1,
		MapSlotAllocs: 2, ReduceSlotAllocs: 1, Jobs: 1, Makespan: 250})

	tel.PoolGet(false)
	tel.PoolGet(true)
	tel.PoolGet(true)

	// Two what-if branches forked off a shared prefix: known copy costs.
	tel.ForkDone(1000)
	tel.ForkDone(1500)

	// Replay cache traffic through two bound caches: one memory hit, one
	// disk hit, one miss, two LRU evictions, 4 KiB resident.
	mem := rcache.New(rcache.Options{MemBytes: 4096})
	tel.BindCache(mem)
	mem.Put(rcache.Key{Lo: 1}, cacheResult(1, ""))
	mem.Put(rcache.Key{Lo: 2}, cacheResult(1, ""))
	// A resident entry costs 48 B a job, its name bytes and 128 B: this
	// one fills the 4 KiB budget alone and evicts the two before it.
	mem.Put(rcache.Key{Lo: 3}, cacheResult(82, strings.Repeat("n", 32)))
	mem.Get(rcache.Key{Lo: 3})
	mem.Get(rcache.Key{Lo: 1})
	// A disk hit too large for its memory tier stays on disk.
	disk := rcache.New(rcache.Options{Dir: t.TempDir(), MemBytes: 1})
	tel.BindCache(disk)
	disk.Put(rcache.Key{Lo: 4}, cacheResult(1, ""))
	disk.Get(rcache.Key{Lo: 4})
}

// cacheResult is a Result of n jobs, the first of them named name.
func cacheResult(n int, name string) *engine.Result {
	res := &engine.Result{Jobs: make([]engine.JobOutcome, n), Events: uint64(n)}
	for i := range res.Jobs {
		res.Jobs[i] = engine.JobOutcome{ID: i, Finish: float64(i + 1), Events: 1}
	}
	res.Jobs[0].Name = name
	return res
}

// TestSimMetricsGolden pins the full /metrics exposition of the SimMR
// metric set after a deterministic two-job replay: every family name,
// HELP/TYPE line, bucket boundary, and count. Wall-clock metrics
// (replay wall time, stage spans) are deliberately not driven, so their
// zero-valued families are part of the golden output. Regenerate with
// `go test ./internal/telemetry -run Golden -update`.
func TestSimMetricsGolden(t *testing.T) {
	tel := NewSimMetrics()
	simulateTwoJobs(t, tel)

	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	const goldenPath = "testdata/simmetrics.prom"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden %s (regenerate with -update if intended):\n--- got ---\n%s", goldenPath, got)
	}

	// Spot-check the acceptance histograms directly against the scripted
	// outcomes, independent of the golden file.
	for _, check := range []struct {
		line string
	}{
		{`simmr_map_task_duration_seconds_bucket{le="5"} 1`},  // 4s map
		{`simmr_map_task_duration_seconds_bucket{le="25"} 2`}, // + 20s map
		{`simmr_map_task_duration_seconds_bucket{le="50"} 3`}, // + 30s map
		{`simmr_map_task_duration_seconds_count 3`},
		{`simmr_reduce_task_duration_seconds_bucket{le="100"} 1`}, // 60s patched filler
		{`simmr_reduce_task_duration_seconds_bucket{le="250"} 2`}, // + 200s reduce
		{`simmr_reduce_task_duration_seconds_count 2`},
		{`simmr_job_completion_seconds_bucket{le="100"} 1`}, // job 1: 80s
		{`simmr_job_completion_seconds_bucket{le="250"} 2`}, // job 2: 240s
		{`simmr_job_completion_seconds_sum 320`},
		{`simmr_job_completion_seconds_count 2`},
		{`simmr_engine_events_total 21`},
		{`simmr_jobs_completed_total 2`},
		{`simmr_replays_total 2`},
		{`simmr_preemptions_total 1`},
		{`simmr_filler_patches_total 1`},
		{`simmr_engine_pool_gets_total{reused="false"} 1`},
		{`simmr_engine_pool_gets_total{reused="true"} 2`},
		{`simmr_engine_forks_total 2`},
		{`simmr_engine_fork_bytes_copied 2500`},
		{`simmr_makespan_seconds 250`},
		{`simmr_queue_high_water_events_max 4`},
		{`simmr_rcache_hits_total{tier="mem"} 1`},
		{`simmr_rcache_hits_total{tier="disk"} 1`},
		{`simmr_rcache_misses_total 1`},
		{`simmr_rcache_evictions_total 2`},
		{`simmr_rcache_bytes 4096`},
	} {
		if !strings.Contains(got, check.line+"\n") {
			t.Errorf("exposition missing %q", check.line)
		}
	}
}

// The simmr_rcache_* series are the bound cache's own Stats, read at
// scrape: after memory hits, disk hits, misses and evictions they equal
// Cache.Stats(), and they follow it from one scrape to the next.
func TestRCacheSeriesEqualStats(t *testing.T) {
	tel := NewSimMetrics()
	// Room for one 4-job entry: promoting a second evicts the first.
	c := rcache.New(rcache.Options{Dir: t.TempDir(), MemBytes: 600})
	tel.BindCache(c)
	check := func(when string) {
		t.Helper()
		var sb strings.Builder
		if err := tel.Registry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, line := range strings.Split(sb.String(), "\n") {
			if series, v, ok := strings.Cut(line, " "); ok && strings.HasPrefix(series, "simmr_rcache_") {
				got[series] = v
			}
		}
		st := c.Stats()
		want := map[string]string{
			`simmr_rcache_hits_total{tier="mem"}`:  fmt.Sprint(st.Hits - st.DiskHits),
			`simmr_rcache_hits_total{tier="disk"}`: fmt.Sprint(st.DiskHits),
			"simmr_rcache_misses_total":            fmt.Sprint(st.Misses),
			"simmr_rcache_evictions_total":         fmt.Sprint(st.Evictions),
			"simmr_rcache_bytes":                   fmt.Sprint(st.MemBytes),
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scraped %v, Stats %+v", when, got, st)
		}
	}
	check("empty")
	for k := uint64(1); k <= 3; k++ {
		c.Put(rcache.Key{Lo: k}, cacheResult(4, ""))
	}
	c.Get(rcache.Key{Lo: 1}) // disk hit, promoted
	c.Get(rcache.Key{Lo: 1}) // memory hit
	c.Get(rcache.Key{Lo: 2}) // disk hit, promoted over 1
	c.Get(rcache.Key{Lo: 9}) // miss
	if st := c.Stats(); st.Hits != 3 || st.DiskHits != 2 || st.Misses != 1 || st.Evictions != 1 || st.MemBytes == 0 {
		t.Fatalf("traffic did not reach every count: %+v", st)
	}
	check("after traffic")
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	check("after Clear")
}

// TestNilSimMetrics pins the disabled path: every method on a nil
// receiver is inert and EngineSink returns a true nil interface, so the
// engine's `sink != nil` fast path stays taken.
func TestNilSimMetrics(t *testing.T) {
	var tel *SimMetrics
	tel.ReplayDone(time.Second)
	tel.BindCache(rcache.New(rcache.Options{}))
	tel.PoolGet(true)
	tel.ForkDone(10)
	tel.Span("run")()
	tel.Span("bogus")()
	if tel.Registry() != nil {
		t.Error("nil SimMetrics returned a registry")
	}
	if s := tel.EngineSink(); s != nil {
		t.Errorf("nil SimMetrics returned a non-nil sink: %#v", s)
	}
}

// Span observations land in the right labeled histogram.
func TestSpan(t *testing.T) {
	tel := NewSimMetrics()
	stop := tel.Span("load")
	stop()
	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `simmr_replay_stage_seconds_count{stage="load"} 1`) {
		t.Errorf("load span not recorded:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `simmr_replay_stage_seconds_count{stage="run"} 0`) {
		t.Errorf("unexpected run span:\n%s", sb.String())
	}
}
