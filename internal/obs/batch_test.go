package obs

import (
	"reflect"
	"testing"
)

// blockSink records the stream, takes blocks, and says how the stream
// arrived.
type blockSink struct {
	got             []Event
	blocks, singles int
}

func (b *blockSink) Event(ev Event) {
	b.singles++
	b.got = append(b.got, ev)
}

func (b *blockSink) Events(evs []Event) {
	b.blocks++
	b.got = append(b.got, evs...)
}

func (b *blockSink) RunEnd(Counters) {}

// feedIn delivers evs through f in consecutive blocks of size n.
func feedIn(f Feed, evs []Event, n int) {
	for len(evs) > n {
		f.Events(evs[:n])
		evs = evs[n:]
	}
	f.Events(evs)
}

// A block reaches a BatchSink in one call and any other sink as the
// per-event sequence; a tee hands it to every member either way.
func TestFeedDeliversBlocksOrLoops(t *testing.T) {
	evs := flightEvents(1000)
	plain, blocks := &RecordSink{}, &blockSink{}
	feedIn(FeedOf(plain), evs, 300)
	feedIn(FeedOf(blocks), evs, 300)
	if !reflect.DeepEqual(plain.Events, evs) || !reflect.DeepEqual(blocks.got, evs) {
		t.Fatal("a sink fed in blocks holds a different stream")
	}
	if blocks.blocks != 4 || blocks.singles != 0 {
		t.Fatalf("block-taking sink got %d Events and %d Event calls, want 4 and 0", blocks.blocks, blocks.singles)
	}

	plain, blocks = &RecordSink{}, &blockSink{}
	tee := Tee(plain, blocks)
	if _, ok := tee.(BatchSink); !ok {
		t.Fatal("a tee does not take blocks")
	}
	feedIn(FeedOf(tee), evs[:600], 256)
	tee.Event(evs[600])
	feedIn(FeedOf(tee), evs[601:], 256)
	if !reflect.DeepEqual(plain.Events, evs) || !reflect.DeepEqual(blocks.got, evs) {
		t.Fatal("a tee member holds a different stream")
	}
	if blocks.blocks != 5 || blocks.singles != 1 {
		t.Fatalf("teed block-taking sink got %d Events and %d Event calls, want 5 and 1", blocks.blocks, blocks.singles)
	}
}

// Tee(Tee(a, b), c) is one fan-out over a, b, c: argument order kept,
// nil members gone at every level, samplers found behind the nesting.
func TestTeeFlattens(t *testing.T) {
	a, c, e := &RecordSink{}, &RecordSink{}, &RecordSink{}
	b, d := &depthRecSink{}, &depthRecSink{}
	var order []Sink
	nested := Tee(Tee(nil, a, b), nil, Tee(c), Tee(Tee(d, nil), e))
	for _, f := range nested.(interface{ members() []Feed }).members() {
		order = append(order, f.sink)
	}
	if want := []Sink{a, b, c, d, e}; !reflect.DeepEqual(order, want) {
		t.Fatalf("flattened members %v, want a b c d e in argument order", order)
	}

	nested.Event(Event{Time: 1, Kind: KindJobArrival, Task: -1})
	nested.(BatchSink).Events(flightEvents(10))
	nested.RunEnd(Counters{Events: 11})
	for i, r := range []*RecordSink{a, &b.RecordSink, c, &d.RecordSink, e} {
		if len(r.Events) != 11 || !r.Ended || r.Counters.Events != 11 {
			t.Fatalf("member %d: %d events, ended %v", i, len(r.Events), r.Ended)
		}
	}
	nested.(DepthSampler).SampleDepth(2, 7)
	if len(b.depths) != 1 || len(d.depths) != 1 {
		t.Fatalf("samplers behind the nesting got %d and %d depth samples", len(b.depths), len(d.depths))
	}
	if _, ok := Tee(Tee(a, c), e).(DepthSampler); ok {
		t.Fatal("flattening sampler-blind tees made a DepthSampler")
	}
	if Tee(nil, Tee(nil, a)) != Sink(a) || Tee(Tee(), nil) != nil {
		t.Fatal("a tee of one is that sink, a tee of none is nil")
	}
}

// However a stream is cut into blocks, MetricsSink counts the same.
func TestMetricsSinkBlocksEqualEvents(t *testing.T) {
	evs := flightEvents(12000)
	want := NewMetricsSink()
	for _, ev := range evs {
		want.Event(ev)
	}
	for _, n := range []int{1, 7, 512, 5000} {
		got := NewMetricsSink()
		feedIn(FeedOf(got), evs, n)
		if got.Snapshot() != want.Snapshot() {
			t.Fatalf("blocks of %d: %+v, per event %+v", n, got.Snapshot(), want.Snapshot())
		}
	}
	if s := want.Snapshot(); s.Observed != 12000 || s.SimTime != 11999 {
		t.Fatalf("snapshot %+v", s)
	}
}

// However a stream is cut into blocks — longer than the ring included —
// the flight recorder retains the same window.
func TestFlightRecorderBlocksEqualEvents(t *testing.T) {
	evs := flightEvents(12000)
	for _, ring := range []int{64, 4096} {
		want := NewFlightRecorder(ring)
		for _, ev := range evs {
			want.Event(ev)
		}
		for _, n := range []int{1, 7, 512, 5000} {
			got := NewFlightRecorder(ring)
			feedIn(FeedOf(got), evs, n)
			if got.Recorded() != want.Recorded() || !reflect.DeepEqual(got.ring, want.ring) {
				t.Fatalf("ring %d, blocks of %d: ring differs from per-event recording (recorded %d vs %d)",
					ring, n, got.Recorded(), want.Recorded())
			}
			if d, w := got.Dump("manual"), want.Dump("manual"); !reflect.DeepEqual(d, w) {
				t.Fatalf("ring %d, blocks of %d: dump differs from per-event recording", ring, n)
			}
		}
	}
}

// A Trigger raised mid-run is served by the first block that carries
// the write count across a 512-event boundary, and not before.
func TestFlightRecorderTriggerServedByBlocks(t *testing.T) {
	evs := flightEvents(3000)
	f := NewFlightRecorder(256)
	feed := FeedOf(f)
	feed.Events(evs[:700]) // crosses 512, nothing pending
	f.Trigger()
	feed.Events(evs[700:1000]) // 700 → 1000: no boundary
	if f.Latest() != nil {
		t.Fatal("trigger served without crossing a poll boundary")
	}
	feed.Events(evs[1000:2700]) // crosses 1024, 1536, 2048, 2560: one poll
	d := f.Latest()
	if d == nil || d.Trigger != "trigger" {
		t.Fatalf("trigger not served: %+v", d)
	}
	if len(d.Events) != 256 || d.Events[255] != evs[2699] || d.Dropped != 2700-256 {
		t.Fatalf("dump holds %d events ending %+v, dropped %d", len(d.Events), d.Events[len(d.Events)-1], d.Dropped)
	}
	feed.Events(evs[2700:])
	if f.Latest() != d {
		t.Fatal("a served trigger fired again")
	}
}

// Recorded returns the total number of events recorded so far.
// Owner-side only.
func (f *FlightRecorder) Recorded() uint64 { return f.written }
