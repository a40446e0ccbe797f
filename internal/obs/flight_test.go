package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// flightEvents synthesizes a deterministic stream of n events across
// jobs, including a filler reduce start (End = +Inf) so the JSON
// round-trip exercises the null encoding.
func flightEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Time:  float64(i),
			Kind:  Kind(i % int(KindCount)),
			JobID: i % 7,
			Task:  i % 3,
			End:   float64(i) + 10,
		}
	}
	evs[n/2] = Event{Time: float64(n / 2), Kind: KindReduceTaskStart, JobID: 1, Task: 0,
		End: math.Inf(1), ShuffleEnd: math.Inf(1)}
	return evs
}

func TestFlightRecorderRetainsTail(t *testing.T) {
	f := NewFlightRecorder(64)
	evs := flightEvents(200)
	for _, ev := range evs {
		f.Event(ev)
	}
	f.RunEnd(Counters{Events: 200, Jobs: 7, Makespan: 199})
	d := f.Dump("manual")
	if len(d.Events) != 64 {
		t.Fatalf("retained %d events, want 64", len(d.Events))
	}
	if d.Dropped != 200-64 {
		t.Fatalf("dropped = %d, want %d", d.Dropped, 200-64)
	}
	for i, ev := range d.Events {
		want := evs[200-64+i]
		if ev != want {
			t.Fatalf("event %d = %+v, want %+v (oldest-first order broken)", i, ev, want)
		}
	}
	if !d.Ended || d.Counters.Events != 200 {
		t.Fatalf("dump missed RunEnd: ended=%v counters=%+v", d.Ended, d.Counters)
	}
	if got := f.Latest(); got != d {
		t.Fatal("Dump did not publish to Latest")
	}
}

func TestFlightRecorderShortRun(t *testing.T) {
	f := NewFlightRecorder(0)
	for _, ev := range flightEvents(10) {
		f.Event(ev)
	}
	d := f.Dump("manual")
	if len(d.Events) != 10 || d.Dropped != 0 {
		t.Fatalf("short run dump: %d events, %d dropped", len(d.Events), d.Dropped)
	}
}

func TestFlightRecorderTriggerPolled(t *testing.T) {
	f := NewFlightRecorder(64)
	f.Trigger() // from "another goroutine"
	evs := flightEvents(600)
	for i, ev := range evs {
		f.Event(ev)
		if f.Latest() != nil {
			if i >= 1023 {
				t.Fatalf("trigger not served by event %d", i)
			}
			break
		}
	}
	if f.Latest() == nil {
		t.Fatal("trigger never served during 600-event run")
	}
	if f.Latest().Trigger != "trigger" {
		t.Fatalf("trigger cause = %q", f.Latest().Trigger)
	}

	// A trigger arriving in the final stretch is served at RunEnd.
	f2 := NewFlightRecorder(64)
	for _, ev := range flightEvents(10) {
		f2.Event(ev)
	}
	f2.Trigger()
	f2.RunEnd(Counters{Events: 10})
	if f2.Latest() == nil {
		t.Fatal("late trigger not served at RunEnd")
	}
}

func TestFlightRecorderFork(t *testing.T) {
	f := NewFlightRecorder(64)
	prefix := flightEvents(40)
	for _, ev := range prefix {
		f.Event(ev)
	}
	child := f.Fork()
	child.Event(Event{Time: 1000, Kind: KindJobDeparture, JobID: 99, Task: -1})
	f.Event(Event{Time: 2000, Kind: KindPreempt, JobID: 42, Task: 0})

	cd := child.Dump("manual")
	if len(cd.Events) != 41 {
		t.Fatalf("child retained %d events, want prefix 40 + 1", len(cd.Events))
	}
	if cd.Events[40].JobID != 99 {
		t.Fatalf("child tail = %+v, want its own event", cd.Events[40])
	}
	pd := f.Dump("manual")
	if pd.Events[40].JobID != 42 {
		t.Fatalf("parent tail = %+v; fork leaked between rings", pd.Events[40])
	}
}

func TestFlightDumpJSONRoundTrip(t *testing.T) {
	f := NewFlightRecorder(128)
	f.SetLabel("cell-16x16")
	for _, ev := range flightEvents(100) {
		f.Event(ev)
	}
	f.RunEnd(Counters{Events: 100, Jobs: 7})
	d := f.Dump("deadline-miss")

	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back flightFile
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Label != "cell-16x16" || back.Trigger != "deadline-miss" {
		t.Fatalf("metadata lost: %+v", back)
	}
	if len(back.Events) != len(d.Events) {
		t.Fatalf("events %d != %d", len(back.Events), len(d.Events))
	}
	end := func(p *float64) float64 {
		if p == nil {
			return math.Inf(1)
		}
		return *p
	}
	for i, fe := range back.Events {
		ev := d.Events[i]
		if fe.Time != ev.Time || fe.Kind != ev.Kind.String() || fe.JobID != ev.JobID || fe.Task != ev.Task ||
			end(fe.End) != ev.End || end(fe.ShuffleEnd) != ev.ShuffleEnd {
			t.Fatalf("event %d: %+v != %+v", i, fe, ev)
		}
	}
	if back.Counters != d.Counters {
		t.Fatal("counters lost in round trip")
	}

	// The counters object has the snake_case keys of the rest of the
	// dump, the same object as the Chrome trace's otherData.
	var dump struct {
		Counters map[string]any `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := d.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"events": 100.0, "heap_high_water": 0.0, "jobs": 7.0, "makespan_s": 0.0}
	if !reflect.DeepEqual(dump.Counters, want) || !reflect.DeepEqual(ct.OtherData, want) {
		t.Fatalf("counters %v, otherData %v, want both %v", dump.Counters, ct.OtherData, want)
	}
}

func TestFlightDumpChromeTrace(t *testing.T) {
	f := NewFlightRecorder(64)
	// A coherent mini-run: job 0 arrival, map start/finish, departure.
	for _, ev := range []Event{
		{Time: 0, Kind: KindJobArrival, JobID: 0, Task: -1},
		{Time: 1, Kind: KindMapTaskStart, JobID: 0, Task: 0, End: 5},
		{Time: 5, Kind: KindMapTaskFinish, JobID: 0, Task: 0},
		{Time: 6, Kind: KindJobDeparture, JobID: 0, Task: -1},
	} {
		f.Event(ev)
	}
	d := f.Dump("manual")
	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Fatalf("chrome trace missing traceEvents: %s", buf.String())
	}
}
