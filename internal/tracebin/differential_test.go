package tracebin

import (
	"math/rand"
	"reflect"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/sched/schedtest"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// This file pins the load-path equivalence of the binary store: a
// trace loaded from `.strc` must replay byte-identically to the same
// trace loaded from JSON — same JobOutcomes, same makespan and event
// count, and the same observability event stream in the same order —
// across the full policy suite. The packed loader serves template
// durations zero-copy off the arena; any divergence means the arena
// view or the decode path changed simulation semantics.

// strcPolicies mirrors the engine differential suite's policy set.
func strcPolicies() []struct {
	name string
	mk   func() sched.Policy
} {
	return []struct {
		name string
		mk   func() sched.Policy
	}{
		{"FIFO", func() sched.Policy { return sched.FIFO{} }},
		{"MaxEDF", func() sched.Policy { return sched.MaxEDF{} }},
		{"MinEDF-avg", func() sched.Policy { return sched.MinEDF{} }},
		{"MinEDF-low", func() sched.Policy { return sched.MinEDF{Estimate: sched.EstimatorLow} }},
		{"MinEDF-up", func() sched.Policy { return sched.MinEDF{Estimate: sched.EstimatorUp} }},
		{"Fair", func() sched.Policy { return sched.Fair{} }},
		{"Capacity", func() sched.Policy { return sched.Capacity{Shares: []float64{3, 1, 2}} }},
	}
}

// replayRecorded runs one replay with a recording sink attached.
func replayRecorded(t *testing.T, cfg engine.Config, tr *trace.Trace, p sched.Policy) (*engine.Result, *obs.RecordSink) {
	t.Helper()
	sink := &obs.RecordSink{}
	cfg.Sink = sink
	res, err := engine.Run(cfg, tr, p)
	if err != nil {
		t.Fatalf("%s replay: %v", p.Name(), err)
	}
	return res, sink
}

// assertLoadersEquivalent replays jsonTr and binTr under one policy
// and requires bit-identical outcomes and observability streams.
func assertLoadersEquivalent(t *testing.T, cfg engine.Config, jsonTr, binTr *trace.Trace, mk func() sched.Policy) {
	t.Helper()
	jsonRes, jsonSink := replayRecorded(t, cfg, jsonTr, mk())
	binRes, binSink := replayRecorded(t, cfg, binTr, mk())

	if jsonRes.Events != binRes.Events || jsonRes.Makespan != binRes.Makespan {
		t.Fatalf("events %d vs %d, makespan %v vs %v",
			jsonRes.Events, binRes.Events, jsonRes.Makespan, binRes.Makespan)
	}
	if !reflect.DeepEqual(jsonRes.Jobs, binRes.Jobs) {
		for i := range jsonRes.Jobs {
			if !reflect.DeepEqual(jsonRes.Jobs[i], binRes.Jobs[i]) {
				t.Fatalf("job %d outcome diverged:\n json %+v\n strc %+v",
					jsonRes.Jobs[i].ID, jsonRes.Jobs[i], binRes.Jobs[i])
			}
		}
		t.Fatal("job outcomes diverged")
	}
	if len(jsonSink.Events) != len(binSink.Events) {
		t.Fatalf("obs stream length %d vs %d", len(jsonSink.Events), len(binSink.Events))
	}
	for i := range jsonSink.Events {
		if jsonSink.Events[i] != binSink.Events[i] {
			t.Fatalf("obs event %d diverged:\n json %+v\n strc %+v",
				i, jsonSink.Events[i], binSink.Events[i])
		}
	}
	if jsonSink.Counters != binSink.Counters {
		t.Fatalf("run counters diverged:\n json %+v\n strc %+v", jsonSink.Counters, binSink.Counters)
	}
}

// loadBothWays round-trips tr through each wire format and returns the
// two independently loaded traces.
func loadBothWays(t *testing.T, tr *trace.Trace) (jsonTr, binTr *trace.Trace) {
	t.Helper()
	jsonData, err := trace.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if jsonTr, err = trace.Decode(jsonData); err != nil {
		t.Fatal(err)
	}
	img, err := Pack(tr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	return jsonTr, s.Trace()
}

// TestDifferentialJSONVsSTRC replays multi-tenant workloads (deadlines,
// deadline-free jobs, 0-reduce jobs) through both loaders across the
// policy suite.
func TestDifferentialJSONVsSTRC(t *testing.T) {
	for _, n := range []int{50, 400} {
		tr, err := synth.MultiTenantTrace(n, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		jsonTr, binTr := loadBothWays(t, tr)
		for _, pc := range strcPolicies() {
			pc := pc
			t.Run(pc.name+"/"+tr.Name, func(t *testing.T) {
				assertLoadersEquivalent(t, engine.DefaultConfig(), jsonTr, binTr, pc.mk)
			})
		}
	}
}

// TestDifferentialJSONVsSTRCShared runs the suite on a trace with
// heavy template sharing — the regime where the packed loader actually
// deduplicates and all jobs read the same arena spans.
func TestDifferentialJSONVsSTRCShared(t *testing.T) {
	tr := sharedTrace(t, 300, 6)
	jsonTr, binTr := loadBothWays(t, tr)
	cfg := engine.DefaultConfig()
	cfg.PreemptMapTasks = true
	for _, pc := range strcPolicies() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			assertLoadersEquivalent(t, cfg, jsonTr, binTr, pc.mk)
		})
	}
}

// TestDifferentialIndexedOnPacked replays the packed-loaded trace as
// the engine runs it by default, on its scheduling index, against the
// same trace forced through the per-slot scan — the index must behave
// identically on an arena-backed trace.
func TestDifferentialIndexedOnPacked(t *testing.T) {
	tr, err := synth.MultiTenantTrace(300, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	img, err := Pack(tr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	binTr := s.Trace()
	for _, pc := range strcPolicies() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			scanRes, scanSink := replayRecorded(t, engine.DefaultConfig(), binTr, schedtest.ScanOnly(pc.mk()))
			idxRes, idxSink := replayRecorded(t, engine.DefaultConfig(), binTr, pc.mk())
			if !reflect.DeepEqual(scanRes.Jobs, idxRes.Jobs) {
				t.Fatal("indexed policy diverged from scan on packed trace")
			}
			if len(scanSink.Events) != len(idxSink.Events) {
				t.Fatalf("obs stream length %d vs %d", len(scanSink.Events), len(idxSink.Events))
			}
		})
	}
}
