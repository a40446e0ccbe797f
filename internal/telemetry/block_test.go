package telemetry

import (
	"math"
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
	tel := NewSimMetrics()
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

// A flushed tally leaves the histogram exactly what Observe calls would
// have, whatever the burst lengths; nothing shows before Flush.
func TestTallyMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 37.3
	}
	bounds := []float64{1, 10, 50, 100, 500}
	want := newHistogram(bounds)
	for _, v := range vals {
		want.Observe(v)
	}
	for _, burst := range []int{1, 3, 64, 5000} {
		got := newHistogram(bounds)
		tally := got.NewTally()
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

// Tallies sharing a histogram with each other and with Observe callers
// lose nothing: another writer's additions between a burst's first value
// and its Flush are kept, the burst added on top.
func TestTallyConcurrentWriters(t *testing.T) {
	h := newHistogram([]float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tally := h.NewTally()
			for i := 0; i < 3000; i++ {
				if w == 0 {
					h.Observe(1)
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

// forkSplit is the first event index in the stream's middle half at
// which a first-wave filler has started and not yet been patched, so
// a fork taken there must carry both live arrivals and filler starts.
func forkSplit(t *testing.T, evs []obs.Event) int {
	t.Helper()
	pending := map[int64]bool{}
	for i, ev := range evs {
		switch {
		case ev.Kind == obs.KindReduceTaskStart && math.IsInf(ev.End, 1):
			pending[fillerKey(ev.JobID, ev.Task)] = true
		case ev.Kind == obs.KindFillerPatch:
			delete(pending, fillerKey(ev.JobID, ev.Task))
		}
		if i >= len(evs)/4 && len(pending) > 0 {
			return i + 1
		}
	}
	t.Fatal("stream has no first-wave filler pending past its first quarter")
	return 0
}

// A branch's sink forked after the prefix observes the suffix as the
// unbroken sink would: the registry reads the same, byte for byte, as
// one sink fed the whole stream. A second fork of the same prefix still
// sees every prefix arrival and filler start, so the first fork's
// departures and patches did not consume the prefix's state.
func TestEngineSinkForkContinuesPrefix(t *testing.T) {
	rec := observedStream(t)
	want := exposition(t, rec, 0)
	split := forkSplit(t, rec.Events)
	prefix, suffix := rec.Events[:split], rec.Events[split:]

	tel := NewSimMetrics()
	parent := tel.EngineSink().(*engineSink)
	for _, ev := range prefix {
		parent.Event(ev)
	}
	child := parent.Fork()
	for _, ev := range suffix {
		child.Event(ev)
	}
	child.RunEnd(rec.Counters)
	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Fatalf("prefix + forked suffix differs from one sink:\n%s", firstDiff(got, want))
	}

	var departures, reduces uint64
	for _, ev := range suffix {
		switch {
		case ev.Kind == obs.KindJobDeparture:
			departures++
		case ev.Kind == obs.KindFillerPatch,
			ev.Kind == obs.KindReduceTaskStart && !math.IsInf(ev.End, 1):
			reduces++
		}
	}
	jobs, red := tel.jobCompletion.Snapshot().Count, tel.reduceTaskDur.Snapshot().Count
	second := parent.Fork()
	for _, ev := range suffix {
		second.Event(ev)
	}
	if got := tel.jobCompletion.Snapshot().Count - jobs; got != departures {
		t.Errorf("second fork observed %d completions, want %d", got, departures)
	}
	if got := tel.reduceTaskDur.Snapshot().Count - red; got != reduces {
		t.Errorf("second fork observed %d reduce durations, want %d", got, reduces)
	}
}

// NewSimMetrics ignores its argument: whatever it is passed, the same
// stream renders the same exposition.
func TestNewSimMetricsIgnoresArgument(t *testing.T) {
	rec := observedStream(t)
	render := func(tel *SimMetrics) string {
		sink := tel.EngineSink()
		for _, ev := range rec.Events {
			sink.Event(ev)
		}
		sink.RunEnd(rec.Counters)
		var sb strings.Builder
		if err := tel.Registry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	want := render(NewSimMetrics())
	for _, arg := range []int{0, 1, 64} {
		if got := render(NewSimMetrics(arg)); got != want {
			t.Errorf("NewSimMetrics(%d) differs from NewSimMetrics():\n%s", arg, firstDiff(got, want))
		}
	}
}
