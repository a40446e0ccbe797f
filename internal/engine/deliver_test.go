package engine

import (
	"math/rand"
	"strings"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// The delivery contract (DESIGN.md §8), clause by clause. What a sink
// must hold at a given moment is computed from outside the engine:
// every engine event emits exactly one event of the paper's seven kinds
// first and its slot bookkeeping after, and a macro-step ends with the
// slot grants, so once F events have fired the stream so far is the
// reference stream up to its (F+1)-th event of those kinds.

func deliveryTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := synth.MultiTenantTrace(1000, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// referenceStream is the whole stream of one replay.
func referenceStream(t *testing.T, cfg Config, tr *trace.Trace, p sched.Policy) []obs.Event {
	t.Helper()
	_, rec := replayRecorded(t, cfg, tr, p)
	return rec.Events
}

// heldAfter returns how many events of ref a sink must hold once fired
// engine events have been handled and their macro-step has ended.
func heldAfter(ref []obs.Event, fired uint64) int {
	var seen uint64
	for i, ev := range ref {
		if ev.Kind <= obs.KindMapStageComplete {
			if seen == fired {
				return i
			}
			seen++
		}
	}
	return len(ref)
}

// assertHolds checks got is exactly the first want events of ref, in
// nondecreasing time order (the engine stamps each with its clock, which
// sinks such as obs.MetricsSink rely on), none of them later than now.
func assertHolds(t *testing.T, when string, got, ref []obs.Event, want int, now float64) {
	t.Helper()
	if len(got) != want {
		t.Fatalf("%s: sink holds %d events, want %d of %d", when, len(got), want, len(ref))
	}
	for i, ev := range got {
		if ev != ref[i] {
			t.Fatalf("%s: event %d is %+v, want %+v", when, i, ev, ref[i])
		}
		if i > 0 && ev.Time < got[i-1].Time {
			t.Fatalf("%s: event %d at t=%v follows one at t=%v", when, i, ev.Time, got[i-1].Time)
		}
	}
	if want > 0 && got[want-1].Time > now {
		t.Fatalf("%s: holds an event at t=%v, engine is at %v", when, got[want-1].Time, now)
	}
}

// With no sampler attached the block is handed over exactly when it is
// full and once more at the end: the sink lags by whole blocks only.
func TestBlocksAreFullUntilTheLast(t *testing.T) {
	tr := deliveryTrace(t)
	ref := referenceStream(t, DefaultConfig(), tr, sched.FIFO{})
	rec := &blockRecorder{}
	cfg := DefaultConfig()
	cfg.Sink = rec
	if _, err := Run(cfg, tr, sched.FIFO{}); err != nil {
		t.Fatal(err)
	}
	assertHolds(t, "after Run", rec.events, ref, len(ref), ref[len(ref)-1].Time)
	if rec.singles != 0 {
		t.Fatalf("%d Event calls on a block-taking sink", rec.singles)
	}
	if want := (len(ref) + blockEvents - 1) / blockEvents; len(rec.blocks) != want || want < 3 {
		t.Fatalf("%d events arrived in %d blocks, want %d (and at least 3)", len(ref), len(rec.blocks), want)
	}
	for i, n := range rec.blocks[:len(rec.blocks)-1] {
		if n != blockEvents {
			t.Fatalf("block %d of %d has %d events, want %d", i, len(rec.blocks), n, blockEvents)
		}
	}
}

// samplingProbe is a block recorder that also samples depth: at every
// call it notes what it held and how many events its engine had fired.
type samplingProbe struct {
	blockRecorder
	e       *Engine
	samples []probeSample
}

type probeSample struct {
	now   float64
	fired uint64
	held  int
}

func (p *samplingProbe) SampleDepth(now float64, _ int) {
	p.samples = append(p.samples, probeSample{now, p.e.q.Fired(), len(p.events)})
}

// Every event handled before a SampleDepth call has been delivered when
// the call is made — to a block-taking sink and, through the per-event
// loop, to a plain one teed beside it — and RunEnd comes last.
func TestFlushBeforeSamplersAndRunEnd(t *testing.T) {
	tr := deliveryTrace(t)
	ref := referenceStream(t, DefaultConfig(), tr, sched.MaxEDF{})
	probe, plain := &samplingProbe{}, &obs.RecordSink{}
	cfg := DefaultConfig()
	cfg.Sink = obs.Tee(plain, probe)
	e, err := New(cfg, tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	probe.e = e
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.samples) < 10 {
		t.Fatalf("only %d samples: the run is too short to test the tick", len(probe.samples))
	}
	for i, s := range probe.samples {
		want := heldAfter(ref, s.fired)
		if s.held != want {
			t.Fatalf("sample %d (t=%v, %d events fired): held %d at SampleDepth, want %d", i, s.now, s.fired, s.held, want)
		}
		if want > 0 && ref[want-1].Time > s.now {
			t.Fatalf("sample %d at t=%v holds an event from t=%v", i, s.now, ref[want-1].Time)
		}
	}
	// The tick, not only a full block, made deliveries: some blocks are
	// short of capacity before the last.
	short := 0
	for _, n := range probe.blocks[:len(probe.blocks)-1] {
		if n < blockEvents {
			short++
		}
	}
	if short == 0 {
		t.Fatal("every block was full: the sampling tick never flushed")
	}
	assertHolds(t, "probe after Run", probe.events, ref, len(ref), res.Makespan)
	assertHolds(t, "plain sink after Run", plain.Events, ref, len(ref), res.Makespan)
	if !probe.ended || !plain.Ended || probe.late != 0 || probe.counters.Events != res.Events {
		t.Fatalf("RunEnd: probe %v (late %d, %+v), plain %v", probe.ended, probe.late, probe.counters, plain.Ended)
	}
}

// A paused engine's sink holds exactly the events handled so far, at
// every pause, and the finishing Run delivers the rest and RunEnd.
func TestRunEventsDeliversUpToThePause(t *testing.T) {
	tr := deliveryTrace(t)
	ref := referenceStream(t, DefaultConfig(), tr, sched.FIFO{})
	rec := &blockRecorder{}
	cfg := DefaultConfig()
	cfg.Sink = rec
	e, err := New(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{0, 1, 2, 7, 100, 511, 512, 513, 2000, 2001, 9000} {
		done, err := e.RunEvents(n)
		if err != nil || done {
			t.Fatalf("RunEvents(%d) = %v, %v", n, done, err)
		}
		if e.EventsFired() < n {
			t.Fatalf("RunEvents(%d) stopped at %d", n, e.EventsFired())
		}
		assertHolds(t, "paused", rec.events, ref, heldAfter(ref, e.EventsFired()), e.Now())
		if len(e.block) != 0 {
			t.Fatalf("paused at %d events with %d undelivered", e.EventsFired(), len(e.block))
		}
		if rec.ended {
			t.Fatal("RunEnd delivered by RunEvents")
		}
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertHolds(t, "after the finishing Run", rec.events, ref, len(ref), res.Makespan)
	if !rec.ended || rec.late != 0 {
		t.Fatalf("RunEnd delivered %v, %d events after it", rec.ended, rec.late)
	}
}

// stallingPolicy grants slots like the policy it wraps until its budget
// of map grants runs out, then never again: the replay deadlocks.
type stallingPolicy struct {
	sched.Policy
	grants int
}

func (p *stallingPolicy) ChooseNextMapTask(q []*sched.JobInfo) int {
	if p.grants == 0 {
		return -1
	}
	i := p.Policy.ChooseNextMapTask(q)
	if i >= 0 {
		p.grants--
	}
	return i
}

// A run that fails has delivered everything it handled before the error
// returns — what the "error" flight dump is made from — and no RunEnd.
func TestFailedRunDeliversUpToTheFailure(t *testing.T) {
	tr := deliveryTrace(t)
	ref := referenceStream(t, DefaultConfig(), tr, sched.FIFO{})
	rec, plain := &blockRecorder{}, &obs.RecordSink{}
	cfg := DefaultConfig()
	cfg.Sink = obs.Tee(rec, plain)
	e, err := New(cfg, tr, &stallingPolicy{Policy: sched.FIFO{}, grants: 700})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = e.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run = %v, want the deadlock error", err)
	}
	// Up to the 700th grant the run is FIFO's; everything after differs
	// from the reference only in what was never granted.
	var handled uint64
	for _, ev := range rec.events {
		if ev.Kind <= obs.KindMapStageComplete {
			handled++
		}
	}
	if handled != e.EventsFired() || handled < 1400 {
		t.Fatalf("sink holds %d handled events, engine fired %d", handled, e.EventsFired())
	}
	grant := 0
	for i, ev := range rec.events {
		if ev != ref[i] {
			t.Fatalf("event %d before the stall is %+v, want %+v", i, ev, ref[i])
		}
		if ev.Kind == obs.KindMapSlotAlloc {
			if grant++; grant == 700 {
				break
			}
		}
	}
	if len(plain.Events) != len(rec.events) || len(e.block) != 0 {
		t.Fatalf("plain sink holds %d events, block recorder %d, engine still %d", len(plain.Events), len(rec.events), len(e.block))
	}
	if rec.ended || plain.Ended {
		t.Fatal("RunEnd delivered for a failed run")
	}
}

// The prefix's events are the prefix sink's and the branch's the branch
// sink's: a fork starts on an empty block.
func TestForkSinkSeesBranchEventsOnly(t *testing.T) {
	tr := deliveryTrace(t)
	ref := referenceStream(t, DefaultConfig(), tr, sched.FIFO{})
	prefixRec, branchRec := &blockRecorder{}, &blockRecorder{}
	cfg := DefaultConfig()
	cfg.Sink = prefixRec
	prefix, err := New(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if done, err := prefix.RunEvents(3000); err != nil || done {
		t.Fatalf("prefix RunEvents = %v, %v", done, err)
	}
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cut := heldAfter(ref, snap.Events())
	assertHolds(t, "prefix sink", prefixRec.events, ref, cut, prefix.Now())

	var pool Pool
	branch, err := pool.Fork(snap, ForkOptions{Sink: branchRec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := branch.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertHolds(t, "branch sink", branchRec.events, ref[cut:], len(ref)-cut, res.Makespan)
	if len(prefixRec.events) != cut || prefixRec.ended || !branchRec.ended {
		t.Fatalf("prefix sink holds %d events (ended %v) after the branch ran, want %d", len(prefixRec.events), prefixRec.ended, cut)
	}
}

// panicSink fails its first delivery, leaving the engine with a block
// it never emptied.
type panicSink struct{ blockRecorder }

func (p *panicSink) Events([]obs.Event) { panic("sink failed") }

// The block belongs to the engine and survives Reset and pooling, its
// contents do not: the next run's sink sees that run only. An engine
// that never has a sink never has a block.
func TestBlockOutlivesRunsItsContentsDoNot(t *testing.T) {
	tr := deliveryTrace(t)
	ref := referenceStream(t, DefaultConfig(), tr, sched.FIFO{})

	e, err := New(DefaultConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.block != nil {
		t.Fatal("an engine without a sink allocated a block")
	}

	cfg := DefaultConfig()
	cfg.Sink = &panicSink{}
	if err := e.Reset(cfg, tr, sched.FIFO{}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { _ = recover() }()
		_, _ = e.Run()
	}()
	if len(e.block) != blockEvents {
		t.Fatalf("aborted run left %d events in the block, want a full one", len(e.block))
	}
	block := &e.block[:1][0]

	rec := &blockRecorder{}
	cfg.Sink = rec
	if err := e.Reset(cfg, tr, sched.FIFO{}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertHolds(t, "run after an aborted one", rec.events, ref, len(ref), res.Makespan)

	var pool Pool
	pool.Put(e)
	if e.sink != nil || e.cfg.Sink != nil || e.depth != nil {
		t.Fatal("a pooled engine still references its sink")
	}
	if cap(e.block) != blockEvents || &e.block[:1][0] != block {
		t.Fatal("the block did not survive Reset and pooling")
	}
}
