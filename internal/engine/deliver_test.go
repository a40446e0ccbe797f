package engine

import (
	"math/rand"
	"reflect"
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

// The block is handed over exactly when it is full and once more at the
// end: the sink lags by whole blocks only.
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

// A block-taking sink and a plain one teed beside it both hold the whole
// stream, the block-taking one in full blocks but the last, and RunEnd
// comes to each after its last event.
func TestFlushBeforeRunEnd(t *testing.T) {
	tr := deliveryTrace(t)
	ref := referenceStream(t, DefaultConfig(), tr, sched.MaxEDF{})
	rec, plain := &blockRecorder{}, &obs.RecordSink{}
	cfg := DefaultConfig()
	cfg.Sink = obs.Tee(plain, rec)
	res, err := Run(cfg, tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range rec.blocks[:len(rec.blocks)-1] {
		if n != blockEvents {
			t.Fatalf("block %d of %d has %d events, want %d", i, len(rec.blocks), n, blockEvents)
		}
	}
	assertHolds(t, "block sink after Run", rec.events, ref, len(ref), res.Makespan)
	assertHolds(t, "plain sink after Run", plain.Events, ref, len(ref), res.Makespan)
	if !rec.ended || !plain.Ended || rec.late != 0 || rec.counters.Events != res.Events {
		t.Fatalf("RunEnd: block sink %v (late %d, %+v), plain %v", rec.ended, rec.late, rec.counters, plain.Ended)
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

// A fork is observed through its own ForkOptions.Sink only: one armed
// without a sink holds none, delivers nothing to the snapshot source's
// sink nor to the sink its recycled engine last had, and replays the
// branch exactly as an observed fork does.
func TestForkWithoutSinkIsUnobserved(t *testing.T) {
	tr := deliveryTrace(t)
	ref := referenceStream(t, DefaultConfig(), tr, sched.FIFO{})
	prefixRec := &blockRecorder{}
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

	observed, err := snap.Fork(ForkOptions{Sink: &obs.RecordSink{}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := observed.Run()
	if err != nil {
		t.Fatal(err)
	}

	// blind runs a fork armed without a sink and checks it stayed so.
	blind := func(t *testing.T, fork *Engine) {
		t.Helper()
		if fork.sink != nil || fork.cfg.Sink != nil || fork.feed != (obs.Feed{}) || len(fork.block) != 0 {
			t.Fatal("a fork armed without a sink holds one, or buffered events")
		}
		res, err := fork.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Events != want.Events || res.Makespan != want.Makespan || !reflect.DeepEqual(res.Jobs, want.Jobs) {
			t.Fatalf("blind fork: %d events, makespan %v; observed fork: %d, %v",
				res.Events, res.Makespan, want.Events, want.Makespan)
		}
		if len(fork.block) != 0 {
			t.Fatalf("blind fork buffered %d events", len(fork.block))
		}
		if len(prefixRec.events) != cut || prefixRec.ended {
			t.Fatalf("prefix sink holds %d events (ended %v) after a blind fork ran, want %d", len(prefixRec.events), prefixRec.ended, cut)
		}
	}

	t.Run("Fork", func(t *testing.T) {
		fork, err := snap.Fork(ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		blind(t, fork)
		if fork.block != nil {
			t.Fatal("a fresh fork without a sink allocated a block")
		}
	})

	t.Run("ForkInto", func(t *testing.T) {
		// dst last ran observed: its block is warm, its sink must not
		// be carried into the branch.
		dstRec := &blockRecorder{}
		dcfg := DefaultConfig()
		dcfg.Sink = dstRec
		dst, err := New(dcfg, tr, sched.FIFO{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Run(); err != nil {
			t.Fatal(err)
		}
		held := len(dstRec.events)
		if err := snap.ForkInto(dst, ForkOptions{}); err != nil {
			t.Fatal(err)
		}
		blind(t, dst)
		if len(dstRec.events) != held || dstRec.late != 0 {
			t.Fatalf("recycled engine's old sink got %d more events", len(dstRec.events)-held)
		}
		if cap(dst.block) != blockEvents {
			t.Fatalf("recycled engine's block has cap %d, want %d", cap(dst.block), blockEvents)
		}
	})
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
	if e.sink != nil || e.cfg.Sink != nil || e.feed != (obs.Feed{}) {
		t.Fatal("a pooled engine still references its sink")
	}
	if cap(e.block) != blockEvents || &e.block[:1][0] != block {
		t.Fatal("the block did not survive Reset and pooling")
	}
}
