package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"simmr/internal/report"
)

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < KindCount; k++ {
		s := k.String()
		if s == "" || s == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if KindCount.String() != "unknown" {
		t.Fatalf("out-of-range kind should stringify as unknown")
	}
}

func TestRecordSinkAndTee(t *testing.T) {
	a, b := &RecordSink{}, &RecordSink{}
	sink := Tee(nil, a, nil, b)
	ev := Event{Time: 1, Kind: KindJobArrival, JobID: 7, Task: -1}
	sink.Event(ev)
	sink.RunEnd(Counters{Events: 3, Jobs: 1})
	for name, r := range map[string]*RecordSink{"a": a, "b": b} {
		if len(r.Events) != 1 || r.Events[0] != ev {
			t.Fatalf("%s: recorded %+v", name, r.Events)
		}
		if !r.Ended || r.Counters.Events != 3 {
			t.Fatalf("%s: counters not delivered: %+v", name, r.Counters)
		}
	}
	if Tee() != nil {
		t.Fatal("empty Tee should be nil")
	}
	if Tee(a) != Sink(a) {
		t.Fatal("single-sink Tee should return the sink itself")
	}
}

// synthetic 2-map/1-reduce stream on 1 map + 1 reduce slot, checking
// slot assignment, the filler patch, and preemption handling.
func TestTimelineSinkReconstruction(t *testing.T) {
	inf := math.Inf(1)
	tl := NewTimelineSink()
	for _, ev := range []Event{
		{Time: 0, Kind: KindJobArrival, JobID: 0, Task: -1},
		{Time: 0, Kind: KindMapSlotAlloc, JobID: 0, Task: -1},
		{Time: 0, Kind: KindMapTaskStart, JobID: 0, Task: 0, End: 10},
		{Time: 10, Kind: KindMapTaskFinish, JobID: 0, Task: 0},
		{Time: 10, Kind: KindMapSlotRelease, JobID: 0, Task: 0},
		{Time: 10, Kind: KindMapTaskStart, JobID: 0, Task: 1, End: 20},
		{Time: 10, Kind: KindReduceTaskStart, JobID: 0, Task: 0, End: inf, ShuffleEnd: inf},
		{Time: 20, Kind: KindMapTaskFinish, JobID: 0, Task: 1},
		{Time: 20, Kind: KindMapStageComplete, JobID: 0, Task: -1},
		{Time: 20, Kind: KindFillerPatch, JobID: 0, Task: 0, End: 28, ShuffleEnd: 25},
		{Time: 28, Kind: KindReduceTaskFinish, JobID: 0, Task: 0},
		{Time: 28, Kind: KindJobDeparture, JobID: 0, Task: -1},
	} {
		tl.Event(ev)
	}
	tl.RunEnd(Counters{Events: 9, Jobs: 1, Makespan: 28})

	spans := tl.Spans()
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %+v", spans)
	}
	// Both map tasks reuse slot 0 (released at t=10 before the second
	// start); the reduce numbers independently from 0.
	m0, m1, r0 := spans[0], spans[1], spans[2]
	if m0.Slot != 0 || m0.Task != 0 || m0.Start != 0 || m0.End != 10 || m0.Reduce {
		t.Fatalf("map0 span %+v", m0)
	}
	if m1.Slot != 0 || m1.Task != 1 || m1.Start != 10 || m1.End != 20 {
		t.Fatalf("map1 span %+v", m1)
	}
	if !r0.Reduce || r0.Slot != 0 || r0.Start != 10 || r0.End != 28 || r0.ShuffleEnd != 25 {
		t.Fatalf("reduce span %+v (filler patch not applied?)", r0)
	}
	if m, r := tl.Slots(); m != 1 || r != 1 {
		t.Fatalf("peak slots = %d/%d, want 1/1", m, r)
	}
}

func TestTimelineSinkPreemptionClosesSpan(t *testing.T) {
	tl := NewTimelineSink()
	tl.Event(Event{Time: 0, Kind: KindMapTaskStart, JobID: 1, Task: 3, End: 50})
	tl.Event(Event{Time: 5, Kind: KindPreempt, JobID: 1, Task: 3})
	tl.Event(Event{Time: 5, Kind: KindMapTaskStart, JobID: 2, Task: 0, End: 9})
	tl.Event(Event{Time: 9, Kind: KindMapTaskFinish, JobID: 2, Task: 0})
	spans := tl.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %+v", spans)
	}
	killed := spans[0]
	if !killed.Preempted || killed.End != 5 {
		t.Fatalf("preempted span %+v", killed)
	}
	// The freed slot is reused by the next task.
	if spans[1].Slot != 0 {
		t.Fatalf("slot not recycled after preemption: %+v", spans[1])
	}
}

// The timeline TSV must render through internal/report like any other
// results file — that is the documented integration path.
func TestTimelineTSVRendersViaReport(t *testing.T) {
	tl := NewTimelineSink()
	tl.Event(Event{Time: 0, Kind: KindMapTaskStart, JobID: 0, Task: 0, End: 4})
	tl.Event(Event{Time: 4, Kind: KindMapTaskFinish, JobID: 0, Task: 0})
	tl.RunEnd(Counters{Events: 3, Jobs: 1, Makespan: 4})

	var buf bytes.Buffer
	if err := tl.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "slot_timeline.tsv"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	md, err := report.Generate(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "slot timeline") || !strings.Contains(md, "|0|map|0|0|") {
		t.Fatalf("report did not render the timeline:\n%s", md)
	}
}

// A MetricsSink shared by four engines accumulates their totals, and
// Snapshot may race with delivery: the -race build checks safety.
func TestMetricsSinkSnapshotConcurrent(t *testing.T) {
	m := NewMetricsSink()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Event(Event{Time: float64(i), Kind: KindMapTaskStart, JobID: w, Task: i})
				_ = m.Snapshot()
			}
			m.RunEnd(Counters{Events: 100, HeapHighWater: 5 + w, Jobs: 1, Makespan: float64(w)})
		}(w)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Observed != 400 || s.ByKind[KindMapTaskStart] != 400 {
		t.Fatalf("observed %d byKind %d", s.Observed, s.ByKind[KindMapTaskStart])
	}
	if s.Counters.Events != 400 || s.Counters.Jobs != 4 || s.Counters.HeapHighWater != 8 {
		t.Fatalf("aggregated counters %+v", s.Counters)
	}
	if s.RunsFinished != 4 {
		t.Fatalf("RunsFinished = %d, want 4", s.RunsFinished)
	}
}

func TestChromeTraceSinkValidJSON(t *testing.T) {
	inf := math.Inf(1)
	ct := NewChromeTraceSink()
	for _, ev := range []Event{
		{Time: 0, Kind: KindJobArrival, JobID: 0, Task: -1},
		{Time: 0, Kind: KindMapTaskStart, JobID: 0, Task: 0, End: 10},
		{Time: 10, Kind: KindMapTaskFinish, JobID: 0, Task: 0},
		{Time: 10, Kind: KindReduceTaskStart, JobID: 0, Task: 0, End: inf, ShuffleEnd: inf},
		{Time: 10, Kind: KindMapStageComplete, JobID: 0, Task: -1},
		{Time: 10, Kind: KindFillerPatch, JobID: 0, Task: 0, End: 18, ShuffleEnd: 15},
		{Time: 18, Kind: KindReduceTaskFinish, JobID: 0, Task: 0},
		{Time: 18, Kind: KindJobDeparture, JobID: 0, Task: -1},
	} {
		ct.Event(ev)
	}
	ct.RunEnd(Counters{Events: 7, Jobs: 1, Makespan: 18})

	var buf bytes.Buffer
	if err := ct.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", buf.String())
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var spans, instants int
	for _, ev := range file.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event without dur: %+v", ev)
			}
		case "i":
			instants++
		}
	}
	if spans != 2 {
		t.Fatalf("want 2 task spans, got %d", spans)
	}
	if instants != 3 { // arrival, map-stage, departure
		t.Fatalf("want 3 instants, got %d", instants)
	}
}
