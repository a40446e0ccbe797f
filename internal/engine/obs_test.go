package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// twoMapOneReduce is the observability reference workload: one job with
// 2 maps and 1 reduce on a 1-map/1-reduce-slot cluster, sized so every
// interesting path fires — slot recycling, the reduce slowstart, a
// first-wave filler, and its map-stage patch.
func twoMapOneReduce() *trace.Trace {
	return oneJobTrace(uniformTemplate(2, 1, 10, 5, 7, 3))
}

// The full hand-computed event sequence of the reference workload. Maps
// serialize on the single slot (0–10, 10–20); the reduce starts at 10
// as a filler and is patched at map-stage end (20) to shuffle end 25,
// finish 28.
func TestSinkObservesExactEventSequence(t *testing.T) {
	inf := math.Inf(1)
	rec := &obs.RecordSink{}
	cfg := Config{MapSlots: 1, ReduceSlots: 1, MinMapPercentCompleted: 0.05, Sink: rec}
	res, err := Run(cfg, twoMapOneReduce(), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}

	want := []obs.Event{
		{Time: 0, Kind: obs.KindJobArrival, JobID: 0, Task: -1},
		{Time: 0, Kind: obs.KindMapSlotAlloc, JobID: 0, Task: -1},
		{Time: 0, Kind: obs.KindMapTaskStart, JobID: 0, Task: 0, End: 10},
		{Time: 10, Kind: obs.KindMapTaskFinish, JobID: 0, Task: 0},
		{Time: 10, Kind: obs.KindMapSlotRelease, JobID: 0, Task: 0},
		{Time: 10, Kind: obs.KindMapSlotAlloc, JobID: 0, Task: -1},
		{Time: 10, Kind: obs.KindReduceSlotAlloc, JobID: 0, Task: -1},
		{Time: 10, Kind: obs.KindMapTaskStart, JobID: 0, Task: 1, End: 20},
		{Time: 10, Kind: obs.KindReduceTaskStart, JobID: 0, Task: 0, End: inf, ShuffleEnd: inf},
		{Time: 20, Kind: obs.KindMapTaskFinish, JobID: 0, Task: 1},
		{Time: 20, Kind: obs.KindMapSlotRelease, JobID: 0, Task: 1},
		{Time: 20, Kind: obs.KindMapStageComplete, JobID: 0, Task: -1},
		{Time: 20, Kind: obs.KindFillerPatch, JobID: 0, Task: 0, End: 28, ShuffleEnd: 25},
		{Time: 28, Kind: obs.KindReduceTaskFinish, JobID: 0, Task: 0},
		{Time: 28, Kind: obs.KindReduceSlotRelease, JobID: 0, Task: 0},
		{Time: 28, Kind: obs.KindJobDeparture, JobID: 0, Task: -1},
	}
	if len(rec.Events) != len(want) {
		t.Fatalf("got %d events, want %d:\n%+v", len(rec.Events), len(want), rec.Events)
	}
	for i, ev := range rec.Events {
		if ev != want[i] {
			t.Errorf("event %d:\n got %+v\nwant %+v", i, ev, want[i])
		}
	}

	if !rec.Ended {
		t.Fatal("RunEnd not delivered")
	}
	c := rec.Counters
	if c.Events != res.Events || c.Events != 9 {
		t.Errorf("Counters.Events = %d (result %d), want 9", c.Events, res.Events)
	}
	if c.HeapHighWater != 2 {
		t.Errorf("HeapHighWater = %d, want 2", c.HeapHighWater)
	}
	if c.Jobs != 1 || c.Makespan != 28 {
		t.Errorf("summary counters %+v", c)
	}
}

// kindCount counts the job's events of one kind in a recorded stream.
func kindCount(events []obs.Event, jobID int, kind obs.Kind) int {
	n := 0
	for _, ev := range events {
		if ev.JobID == jobID && ev.Kind == kind {
			n++
		}
	}
	return n
}

// kindTotal counts the events of one kind in a recorded stream, every
// job's: the one record of how many slots, patches and kills a run took.
func kindTotal(events []obs.Event, kind obs.Kind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// JobOutcome carries the job's engine-event count; how many tasks ran is
// the event stream's to say.
func TestJobOutcomeEventCounts(t *testing.T) {
	rec := &obs.RecordSink{}
	cfg := Config{MapSlots: 1, ReduceSlots: 1, MinMapPercentCompleted: 0.05, Sink: rec}
	res, err := Run(cfg, twoMapOneReduce(), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	// All 9 engine events of this single-job replay belong to the job.
	if j := res.Jobs[0]; j.Events != 9 || uint64(j.Events) != res.Events {
		t.Fatalf("Events = %d, result total %d", j.Events, res.Events)
	}
	maps, reduces, kills := kindCount(rec.Events, 0, obs.KindMapTaskFinish),
		kindCount(rec.Events, 0, obs.KindReduceTaskFinish), kindCount(rec.Events, 0, obs.KindPreempt)
	if maps != 2 || reduces != 1 || kills != 0 {
		t.Fatalf("stream has %d map finishes, %d reduce finishes, %d preempts; want 2, 1, 0", maps, reduces, kills)
	}
}

// Preemption must be visible to the sink (KindPreempt + slot release),
// and the killed attempts must not inflate the victim's map finishes.
func TestSinkObservesPreemption(t *testing.T) {
	tr := &trace.Trace{Jobs: []*trace.Job{
		{Name: "victim", Arrival: 0, Deadline: 100000, Template: uniformTemplate(12, 0, 50, 0, 0, 0)},
		{Name: "urgent", Arrival: 5, Deadline: 300, Template: uniformTemplate(4, 0, 10, 0, 0, 0)},
	}}
	tr.Normalize()
	rec := &obs.RecordSink{}
	cfg := Config{MapSlots: 4, ReduceSlots: 1, MinMapPercentCompleted: 0.05,
		PreemptMapTasks: true, Sink: rec}
	if _, err := Run(cfg, tr, sched.MaxEDF{}); err != nil {
		t.Fatal(err)
	}
	// Only the victim is ever preempted; each kill frees its slot.
	preempts := kindCount(rec.Events, 0, obs.KindPreempt)
	if preempts == 0 || kindCount(rec.Events, 1, obs.KindPreempt) != 0 {
		t.Fatalf("%d preempts of the victim, %d of the urgent job; want some and none",
			preempts, kindCount(rec.Events, 1, obs.KindPreempt))
	}
	// Every map still ran to completion exactly once.
	if finished := kindCount(rec.Events, 0, obs.KindMapTaskFinish); finished != 12 {
		t.Fatalf("victim finished %d maps, want 12", finished)
	}
	if releases := kindCount(rec.Events, 0, obs.KindMapSlotRelease); releases != 12+preempts {
		t.Fatalf("victim released %d map slots, want one per finish and per kill = %d", releases, 12+preempts)
	}
}

// A sink must not perturb the simulation: identical outcomes with and
// without one attached.
func TestSinkDoesNotAffectReplay(t *testing.T) {
	run := func(sink obs.Sink) *Result {
		cfg := Config{MapSlots: 3, ReduceSlots: 2, MinMapPercentCompleted: 0.05, Sink: sink}
		tr := &trace.Trace{Jobs: []*trace.Job{
			{Arrival: 0, Template: uniformTemplate(7, 2, 9, 4, 6, 2)},
			{Arrival: 3, Template: uniformTemplate(5, 1, 11, 3, 5, 4)},
		}}
		tr.Normalize()
		res, err := Run(cfg, tr, sched.FIFO{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	observed := run(obs.Tee(&obs.RecordSink{}, obs.NewTimelineSink(), obs.NewChromeTraceSink()))
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(observed)
	if !bytes.Equal(a, b) {
		t.Fatalf("sink changed the replay:\n%s\nvs\n%s", a, b)
	}
}

// Golden file: the Chrome trace-event export of the two-job FIFO
// example must be stable byte for byte (and valid JSON — checked by
// the decode). Regenerate with `go test ./internal/engine -run Golden -update`.
func TestChromeTraceGoldenTwoJobFIFO(t *testing.T) {
	ct := obs.NewChromeTraceSink()
	cfg := Config{MapSlots: 2, ReduceSlots: 1, MinMapPercentCompleted: 0.05, Sink: ct}
	tr := &trace.Trace{Name: "two-job-fifo", Jobs: []*trace.Job{
		{Name: "alpha", Arrival: 0, Template: uniformTemplate(3, 1, 10, 5, 7, 4)},
		{Name: "beta", Arrival: 5, Template: uniformTemplate(2, 1, 8, 3, 6, 2)},
	}}
	tr.Normalize()
	if _, err := Run(cfg, tr, sched.FIFO{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ct.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_trace_two_job_fifo.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden file:\n got: %s\nwant: %s", buf.Bytes(), want)
	}
	if !json.Valid(want) {
		t.Fatal("golden file is not valid JSON")
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(want, &file); err != nil {
		t.Fatal(err)
	}
	// 3 metadata + 7 task spans + instants (2 arrivals, 2 departures,
	// 2 map-stage completions) = at least 16 events.
	if len(file.TraceEvents) < 16 {
		t.Fatalf("suspiciously small trace: %d events", len(file.TraceEvents))
	}
}

// A job-arrival event carries the job's effective deadline in End (0:
// none), so a sink reading the stream needs no trace: the trace's
// deadline on a straight replay, and a SetDeadline edit on a fork.
func TestArrivalEventCarriesDeadline(t *testing.T) {
	tpl := uniformTemplate(1, 0, 10, 0, 0, 0)
	tr := &trace.Trace{Jobs: []*trace.Job{
		{ID: 0, Arrival: 0, Deadline: 50, Template: tpl},
		{ID: 1, Arrival: 5, Template: tpl},
		{ID: 2, Arrival: 100, Deadline: 200, Template: tpl},
	}}
	tr.Normalize()
	cfg := Config{MapSlots: 1, ReduceSlots: 1, MinMapPercentCompleted: 0.05}
	arrivals := func(evs []obs.Event) map[int]float64 {
		m := map[int]float64{}
		for _, ev := range evs {
			if ev.Kind == obs.KindJobArrival {
				m[ev.JobID] = ev.End
			}
		}
		return m
	}

	rec := &obs.RecordSink{}
	straight := cfg
	straight.Sink = rec
	if _, err := Run(straight, tr, sched.FIFO{}); err != nil {
		t.Fatal(err)
	}
	if got, want := arrivals(rec.Events), map[int]float64{0: 50, 1: 0, 2: 200}; !reflect.DeepEqual(got, want) {
		t.Fatalf("straight replay: arrival deadlines %v, want %v", got, want)
	}

	prefix, rec := pauseAt(t, cfg, tr, sched.FIFO{}, 4)
	if id, _ := firstUnarrivedID(prefix); id != 2 {
		t.Fatalf("first job still to arrive at the branch point is %d, want 2", id)
	}
	forkRec := &obs.RecordSink{}
	fork, err := prefix.Fork(ForkOptions{Sink: forkRec})
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.SetDeadline(2, 180); err != nil {
		t.Fatal(err)
	}
	if _, err := fork.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := arrivals(append(rec.Events, forkRec.Events...)), map[int]float64{0: 50, 1: 0, 2: 180}; !reflect.DeepEqual(got, want) {
		t.Fatalf("forked replay: arrival deadlines %v, want %v", got, want)
	}
}
