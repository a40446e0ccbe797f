package benchkit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Watch mode: the longitudinal complement to the guard. Where Guard
// compares one fresh benchmark run against the single recorded
// baseline, Watch reads the append-only BENCH_history.jsonl and asks
// whether the *newest logged run* degraded against the rolling median
// of the runs before it — catching slow drift that stays inside the
// guard's per-run tolerance, and pinning each degradation to the
// version range it entered in. `benchreport -watch` is the CLI entry
// point; it runs no benchmarks, reads only the log, and exits non-zero
// on any flagged metric, so CI can run it for free on every push.

// WatchWindow is the default number of prior runs the rolling median
// is fit over.
const WatchWindow = 5

// WatchTolerance is the default degradation threshold against the
// rolling median: >10% in the metric's bad direction flags a
// regression.
const WatchTolerance = 0.10

// watchMetric describes one history column the analyzer tracks.
// Zero values mean "not measured on that run" (older records predate
// newer benchmarks) and are skipped, not treated as zero.
type watchMetric struct {
	name string
	get  func(*HistoryRecord) float64
	// higherBetter: throughput-family metrics degrade downward;
	// alloc/latency-family metrics degrade upward.
	higherBetter bool
}

var watchMetrics = []watchMetric{
	{"events_per_sec", func(r *HistoryRecord) float64 { return r.EventsPerSec }, true},
	{"allocs_per_op", func(r *HistoryRecord) float64 { return float64(r.AllocsPerOp) }, false},
	{"bytes_per_op", func(r *HistoryRecord) float64 { return float64(r.BytesPerOp) }, false},
	{"sched_events_per_sec", func(r *HistoryRecord) float64 { return r.SchedEventsPerSec }, true},
	{"sched_allocs_per_op", func(r *HistoryRecord) float64 { return float64(r.SchedAllocsPerOp) }, false},
	{"sweep_allocs_per_op", func(r *HistoryRecord) float64 { return float64(r.SweepAllocsPerOp) }, false},
	{"sweep_bytes_per_op", func(r *HistoryRecord) float64 { return float64(r.SweepBytesPerOp) }, false},
	{"fork_ns_per_op", func(r *HistoryRecord) float64 { return r.ForkNsPerOp }, false},
	{"branch_events_per_sec", func(r *HistoryRecord) float64 { return r.BranchEventsPerSec }, true},
	{"branch_speedup", func(r *HistoryRecord) float64 { return r.BranchSpeedup }, true},
	{"attr_events_per_sec", func(r *HistoryRecord) float64 { return r.AttrEventsPerSec }, true},
	{"flight_events_per_sec", func(r *HistoryRecord) float64 { return r.FlightEventsPerSec }, true},
	{"observed_events_per_sec", func(r *HistoryRecord) float64 { return r.ObservedEventsPerSec }, true},
	{"trace_load_jobs_per_sec", func(r *HistoryRecord) float64 { return r.TraceLoadJobsPerSec }, true},
	{"trace_load_speedup", func(r *HistoryRecord) float64 { return r.TraceLoadSpeedup }, true},
	{"cache_hit_jobs_per_sec", func(r *HistoryRecord) float64 { return r.CacheHitJobsPerSec }, true},
	{"cache_warm_speedup", func(r *HistoryRecord) float64 { return r.CacheWarmSpeedup }, true},
	{"cache_cold_overhead_pct", func(r *HistoryRecord) float64 { return r.CacheColdOverheadPct }, false},
}

// Regression is one flagged metric: the newest run's value against the
// rolling median of the window before it, with the version (or, for
// records predating version stamping, timestamp) range the degradation
// entered in.
type Regression struct {
	Metric string  `json:"metric"`
	Latest float64 `json:"latest"`
	Median float64 `json:"median"`
	// Delta is the signed fractional change from median to latest,
	// negative when a higher-better metric dropped.
	Delta  float64 `json:"delta"`
	Window int     `json:"window"`
	// LastGood identifies the most recent prior run still within
	// tolerance of the median; FirstBad identifies the newest run. The
	// offending change landed between them.
	LastGood string `json:"last_good"`
	FirstBad string `json:"first_bad"`
}

func (r *Regression) String() string {
	dir := "dropped"
	if r.Delta > 0 {
		dir = "rose"
	}
	return fmt.Sprintf("%s %s %.1f%% vs %d-run median (%.4g -> %.4g), between %s and %s",
		r.Metric, dir, math.Abs(r.Delta)*100, r.Window, r.Median, r.Latest, r.LastGood, r.FirstBad)
}

// WatchReport is one analysis pass over the history log.
type WatchReport struct {
	Records     int
	Regressions []Regression
	Summary     string
}

// LoadHistory reads every record of a BENCH_history.jsonl. Unparsable
// lines are skipped (the log is append-only across versions; a
// half-written final line must not poison CI).
func LoadHistory(path string) ([]HistoryRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []HistoryRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r HistoryRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			continue
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// Watch fits a rolling median per metric over the last `window` runs
// preceding the newest record and flags every metric whose newest value
// degraded more than `tol` in its bad direction. window <= 0 and
// tol <= 0 select the defaults. Metrics with fewer than two measured
// points (or none in the window) are skipped — a brand-new benchmark
// cannot regress against a history it doesn't have.
func Watch(path string, window int, tol float64) (WatchReport, error) {
	if window <= 0 {
		window = WatchWindow
	}
	if tol <= 0 {
		tol = WatchTolerance
	}
	recs, err := LoadHistory(path)
	if err != nil {
		return WatchReport{}, err
	}
	rep := WatchReport{Records: len(recs)}
	if len(recs) < 2 {
		rep.Summary = fmt.Sprintf("bench-watch: %d record(s) in %s — nothing to compare", len(recs), path)
		return rep, nil
	}

	latest := &recs[len(recs)-1]
	checked := 0
	for _, m := range watchMetrics {
		cur := m.get(latest)
		if cur == 0 {
			continue // not measured on the newest run
		}
		// Collect the measured points before the newest, most recent
		// last, then fit the median over the trailing window.
		var prior []int
		for i := 0; i < len(recs)-1; i++ {
			if m.get(&recs[i]) != 0 {
				prior = append(prior, i)
			}
		}
		if len(prior) == 0 {
			continue
		}
		win := prior
		if len(win) > window {
			win = win[len(win)-window:]
		}
		vals := make([]float64, len(win))
		for i, idx := range win {
			vals[i] = m.get(&recs[idx])
		}
		med := median(vals)
		if med == 0 {
			continue
		}
		checked++
		delta := (cur - med) / med
		bad := delta < -tol
		if !m.higherBetter {
			bad = delta > tol
		}
		if !bad {
			continue
		}
		// Pin the range: walk back from the newest prior run to the
		// most recent one still within tolerance of the median.
		lastGood := ""
		for i := len(prior) - 1; i >= 0; i-- {
			v := m.get(&recs[prior[i]])
			d := (v - med) / med
			ok := d >= -tol
			if !m.higherBetter {
				ok = d <= tol
			}
			if ok {
				lastGood = recordID(&recs[prior[i]])
				break
			}
		}
		if lastGood == "" {
			lastGood = recordID(&recs[prior[0]])
		}
		rep.Regressions = append(rep.Regressions, Regression{
			Metric:   m.name,
			Latest:   cur,
			Median:   med,
			Delta:    delta,
			Window:   len(vals),
			LastGood: lastGood,
			FirstBad: recordID(latest),
		})
	}

	if len(rep.Regressions) == 0 {
		rep.Summary = fmt.Sprintf("bench-watch: OK — %d metric(s) within %.0f%% of their rolling median over %d run(s)",
			checked, tol*100, len(recs))
		return rep, nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "bench-watch: %d metric(s) degraded >%.0f%% vs rolling median:\n", len(rep.Regressions), tol*100)
	for i := range rep.Regressions {
		fmt.Fprintf(&b, "  %s\n", rep.Regressions[i].String())
	}
	rep.Summary = strings.TrimRight(b.String(), "\n")
	return rep, nil
}

// recordID names a run for the regression range: its stamped version
// when present (modern records), its timestamp otherwise.
func recordID(r *HistoryRecord) string {
	if r.Version != "" {
		return r.Version
	}
	if r.Time != "" {
		return r.Time
	}
	return "unknown"
}

// median returns the middle of vals (mean of the middle pair for even
// lengths). vals is copied, not reordered in place.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
