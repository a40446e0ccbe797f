package telemetry

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/synth"
)

// observedStream is one real replay's stream and counters: task
// durations are not round numbers, so a histogram sum folded in another
// order would print differently.
func observedStream(t *testing.T) *obs.RecordSink {
	t.Helper()
	tr, err := synth.MultiTenantTrace(400, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.RecordSink{}
	cfg := engine.DefaultConfig()
	cfg.Sink = rec
	if _, err := engine.Run(cfg, tr, sched.MaxEDF{}); err != nil {
		t.Fatal(err)
	}
	return rec
}

// exposition feeds the stream to one engine sink n events at a time
// (n = 0: one Event call per event) and renders the registry.
func exposition(t *testing.T, rec *obs.RecordSink, n int) string {
	t.Helper()
	tel := NewSimMetrics(2)
	sink := tel.EngineSink()
	if n == 0 {
		for _, ev := range rec.Events {
			sink.Event(ev)
		}
	} else {
		feed := obs.FeedOf(sink)
		evs := rec.Events
		for len(evs) > n {
			feed.Events(evs[:n])
			evs = evs[n:]
		}
		feed.Events(evs)
	}
	sink.RunEnd(rec.Counters)
	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// However a stream is cut into blocks, /metrics reads the same, byte
// for byte — histogram sums included.
func TestEngineSinkBlocksEqualEvents(t *testing.T) {
	rec := observedStream(t)
	if len(rec.Events) < 6000 {
		t.Fatalf("stream of %d events is shorter than the largest block", len(rec.Events))
	}
	want := exposition(t, rec, 0)
	for _, probe := range []string{"simmr_map_task_duration_seconds_sum ", "simmr_job_completion_seconds_count 400\n"} {
		if !strings.Contains(want, probe) {
			t.Fatalf("exposition lacks %q", probe)
		}
	}
	for _, n := range []int{1, 7, 512, 5000} {
		if got := exposition(t, rec, n); got != want {
			t.Errorf("blocks of %d: exposition differs from per-event delivery:\n%s", n, firstDiff(got, want))
		}
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) {
			return "extra line " + g[i]
		}
		if g[i] != w[i] {
			return "got  " + g[i] + "\nwant " + w[i]
		}
	}
	return "lines missing at the end"
}

// A flushed tally leaves the shard exactly what Observe calls would
// have, whatever the burst lengths; nothing shows before Flush.
func TestTallyMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 37.3
	}
	bounds := []float64{1, 10, 50, 100, 500}
	want := newHistogram(2, bounds)
	for _, v := range vals {
		want.Observe(1, v)
	}
	for _, burst := range []int{1, 3, 64, 5000} {
		got := newHistogram(2, bounds)
		tally := got.NewTally(1)
		for i, v := range vals {
			tally.Observe(v)
			if (i+1)%burst == 0 {
				tally.Flush()
			} else if i+1 == len(vals) {
				if s := got.Snapshot(); s.Count == uint64(len(vals)) {
					t.Fatalf("bursts of %d: unflushed observations are visible", burst)
				}
			}
		}
		tally.Flush()
		tally.Flush() // empty: publishes nothing
		g, w := got.Snapshot(), want.Snapshot()
		if g.Sum != w.Sum || g.Count != w.Count {
			t.Fatalf("bursts of %d: sum %v count %d, Observe gives %v / %d", burst, g.Sum, g.Count, w.Sum, w.Count)
		}
		for i := range w.Buckets {
			if g.Buckets[i] != w.Buckets[i] {
				t.Fatalf("bursts of %d: bucket %d = %d, want %d", burst, i, g.Buckets[i], w.Buckets[i])
			}
		}
	}
}

// Tallies sharing a shard with each other and with Observe callers lose
// nothing: another writer's additions between a burst's first value and
// its Flush are kept, the burst added on top.
func TestTallySharedShard(t *testing.T) {
	h := newHistogram(1, []float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tally := h.NewTally(0)
			for i := 0; i < 3000; i++ {
				if w == 0 {
					h.Observe(0, 1)
					continue
				}
				tally.Observe(1)
				if i%7 == 0 {
					tally.Flush()
				}
			}
			tally.Flush()
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 12000 || s.Sum != 12000 || s.Buckets[0] != 12000 {
		t.Fatalf("count %d sum %v bucket %d, want 12000 each", s.Count, s.Sum, s.Buckets[0])
	}
}
