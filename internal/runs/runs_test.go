package runs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"simmr/internal/obs"
)

func TestBeginSnapshotEnd(t *testing.T) {
	r := New(4)
	h := r.Begin(Meta{Kind: KindSweep, Trace: "fb2009", TraceHash: "abcd", Policy: "minedf", Config: "16x16"})
	if len(h.ID()) != 26 {
		t.Fatalf("id = %q, want 26-char ULID", h.ID())
	}
	if r.Active() != 1 || r.Started(KindSweep) != 1 {
		t.Fatalf("active=%d started=%d", r.Active(), r.Started(KindSweep))
	}
	h.SetPhase("replay")
	h.Progress(3, 10)
	h.AddEvents(500)
	h.AddJobs(7)
	s := h.Snapshot()
	if s.Kind != KindSweep || s.Phase != "replay" || s.Done != 3 || s.Total != 10 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Progress < 0.29 || s.Progress > 0.31 {
		t.Fatalf("progress = %v", s.Progress)
	}
	if s.Outcome != OutcomeRunning {
		t.Fatalf("live snapshot has outcome %q", s.Outcome)
	}

	h.End(nil)
	h.End(errors.New("second End must not win"))
	s = h.Snapshot()
	if s.Outcome != OutcomeOK || s.Error != "" {
		t.Fatalf("ended snapshot = %+v", s)
	}
	if r.Active() != 0 {
		t.Fatalf("active after end = %d", r.Active())
	}
	if got := r.Get(h.ID()); got != h {
		t.Fatal("completed run not resolvable by ID")
	}
}

func TestOutcomes(t *testing.T) {
	r := New(4)
	he := r.Begin(Meta{Kind: KindReplay})
	he.End(errors.New("policy exploded"))
	if s := he.Snapshot(); s.Outcome != OutcomeError || s.Error != "policy exploded" {
		t.Fatalf("error outcome = %+v", s)
	}
	for _, err := range []error{context.Canceled, context.DeadlineExceeded, fmt.Errorf("sweep: %w", context.Canceled)} {
		hc := r.Begin(Meta{Kind: KindReplay})
		hc.End(err)
		if s := hc.Snapshot(); s.Outcome != OutcomeCanceled {
			t.Fatalf("End(%v): canceled outcome = %+v", err, s)
		}
	}
}

func TestRecentRingBounded(t *testing.T) {
	r := New(3)
	var ids []string
	for i := 0; i < 10; i++ {
		h := r.Begin(Meta{Kind: KindBatch})
		ids = append(ids, h.ID())
		h.End(nil)
	}
	list := r.List()
	if len(list) != 3 {
		t.Fatalf("retained %d completed runs, want 3", len(list))
	}
	// Newest first.
	if list[0].ID != ids[9] || list[2].ID != ids[7] {
		t.Fatalf("ring order: %v %v %v, want %v..%v", list[0].ID, list[1].ID, list[2].ID, ids[9], ids[7])
	}
	if r.Get(ids[0]) != nil {
		t.Fatal("evicted run still resolvable")
	}
}

func TestGetPrefixAndLatest(t *testing.T) {
	r := New(8)
	h1 := r.Begin(Meta{Kind: KindReplay})
	time.Sleep(2 * time.Millisecond) // distinct start ordering
	h2 := r.Begin(Meta{Kind: KindBranch})
	if r.Latest() != h2 {
		t.Fatal("Latest should prefer the newest live run")
	}
	if r.Get("latest") != h2 || r.Get("") != h2 {
		t.Fatal(`Get("latest") mismatch`)
	}
	// A unique prefix resolves; an ambiguous one doesn't. The two IDs
	// share a millisecond-timestamp prefix, so use a long unique one.
	long := h1.ID()[:20]
	if got := r.Get(long); got != h1 && h2.ID()[:20] != long {
		t.Fatalf("prefix lookup failed: %v", got)
	}
	if r.Get("zzz") != nil {
		t.Fatal("short prefix must not resolve")
	}
	h2.End(nil)
	h1.End(nil)
	if r.Latest() != h1 {
		t.Fatal("Latest should fall back to most recently completed")
	}
}

// TestUpdatesRaceEnd races progress writers, readers and several End
// callers on one handle. A stream decides a run is over from one
// Snapshot, so the first End must win alone, retire the run once, and
// every snapshot after a final one must be that same final one.
func TestUpdatesRaceEnd(t *testing.T) {
	r := New(4)
	h := r.Begin(Meta{Kind: KindSweep})
	const writers, steps = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := steps - 1; i >= 0; i-- { // out of order: max wins
				h.Progress(i*writers+w, writers*steps)
				h.AddEvents(1)
				h.SetPhase(fmt.Sprintf("w%d", w))
			}
		}(w)
	}
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last, final Snapshot
			for i := 0; i < steps; i++ {
				s := h.Snapshot()
				if s.Done < last.Done {
					errs <- fmt.Errorf("done went back: %d after %d", s.Done, last.Done)
					return
				}
				if final.Outcome != "" && (s.Outcome != final.Outcome || s.ElapsedSec != final.ElapsedSec) {
					errs <- fmt.Errorf("final snapshot changed: %+v after %+v", s, final)
					return
				}
				if s.Outcome != OutcomeRunning && final.Outcome == "" {
					final = s
				}
				last = s
			}
		}()
	}
	enders := []error{nil, errors.New("late"), context.Canceled}
	for _, err := range enders {
		wg.Add(1)
		go func(err error) {
			defer wg.Done()
			h.End(err)
		}(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	s := h.Snapshot()
	if s.Outcome == OutcomeRunning {
		t.Fatalf("after End: %+v", s)
	}
	if again := h.Snapshot(); again.Outcome != s.Outcome || again.ElapsedSec != s.ElapsedSec || again.Error != s.Error {
		t.Fatalf("final snapshot changed: %+v then %+v", s, again)
	}
	if s.Done != writers*steps-1 || s.Total != writers*steps || s.Events != writers*steps {
		t.Fatalf("done=%d total=%d events=%d, want %d %d %d", s.Done, s.Total, s.Events, writers*steps-1, writers*steps, writers*steps)
	}
	if r.Active() != 0 {
		t.Fatalf("active after End = %d", r.Active())
	}
	retired := 0
	for _, l := range r.List() {
		if l.ID == h.ID() {
			retired++
		}
	}
	if retired != 1 {
		t.Fatalf("run listed %d times after %d End calls, want once", retired, len(enders))
	}
}

// TestFinalSnapshotCarriesTotals polls a handle while its owner makes
// its last updates and ends it. A stream sends the first non-running
// snapshot as its final frame, so that snapshot must hold every update
// made before End.
func TestFinalSnapshotCarriesTotals(t *testing.T) {
	r := New(4)
	for i := 0; i < 20000; i++ {
		h := r.Begin(Meta{Kind: KindSweep})
		final := make(chan Snapshot)
		go func() {
			for {
				if s := h.Snapshot(); s.Outcome != OutcomeRunning {
					final <- s
					return
				}
			}
		}()
		h.SetPhase("fold")
		h.Progress(64, 64)
		h.AddEvents(7)
		h.AddJobs(3)
		h.AddCached(2)
		h.End(nil)
		s := <-final
		if s.Outcome != OutcomeOK || s.Phase != "fold" || s.Done != 64 || s.Total != 64 ||
			s.Events != 7 || s.Jobs != 3 || s.Cached != 2 {
			t.Fatalf("final snapshot lacks updates made before End: %+v", s)
		}
	}
}

func TestNilHandleInert(t *testing.T) {
	var h *Handle
	h.SetPhase("x")
	h.Progress(1, 2)
	h.AddEvents(1)
	h.AddJobs(1)
	h.End(nil)
	h.AttachFlight(nil)
	h.AddFlightDump(nil)
	if h.TriggerFlight() != 0 || h.FlightDumps() != nil || h.ID() != "" || h.Running() {
		t.Fatal("nil handle not inert")
	}
	var r *Registry
	if r.Begin(Meta{}) != nil || r.Active() != 0 || r.List() != nil || r.Get("x") != nil {
		t.Fatal("nil registry not inert")
	}
}

func TestFlightAttachment(t *testing.T) {
	r := New(4)
	h := r.Begin(Meta{Kind: KindReplay})
	f := obs.NewFlightRecorder(64)
	h.AttachFlight(f)
	if n := h.TriggerFlight(); n != 1 {
		t.Fatalf("TriggerFlight = %d", n)
	}
	// The owner's next poll serves the trigger.
	for i := 0; i < 600; i++ {
		f.Event(obs.Event{Time: float64(i), Kind: obs.KindJobArrival, JobID: i, Task: -1})
	}
	dumps := h.FlightDumps()
	if len(dumps) != 1 || dumps[0].Trigger != "trigger" {
		t.Fatalf("dumps = %v", dumps)
	}
	// Storing a new capture makes it both the stored dump and the
	// recorder's latest — it must appear once, not twice.
	h.AddFlightDump(f.Dump("deadline-miss"))
	if s := h.Snapshot(); s.FlightDumps != 1 {
		t.Fatalf("snapshot flight count = %d, want 1 deduped", s.FlightDumps)
	}
	// Bounded retention; the final stored dump is also the latest.
	for i := 0; i < 2*maxFlightDumps; i++ {
		h.AddFlightDump(f.Dump(fmt.Sprintf("manual-%d", i)))
	}
	if got := len(h.FlightDumps()); got != maxFlightDumps {
		t.Fatalf("retained %d dumps, want %d", got, maxFlightDumps)
	}
}

// End turns what the recorders published into stored dumps and lets the
// recorders go: the list /runs/{id}/flight serves is unchanged, nothing
// can be triggered or attached any more.
func TestEndReleasesFlightRecorders(t *testing.T) {
	r := New(4)
	h := r.Begin(Meta{Kind: KindBatch})
	stored, published, silent := obs.NewFlightRecorder(64), obs.NewFlightRecorder(64), obs.NewFlightRecorder(64)
	for _, f := range []*obs.FlightRecorder{stored, published, silent} {
		h.AttachFlight(f)
		f.Event(obs.Event{Kind: obs.KindJobArrival, Task: -1})
	}
	h.AddFlightDump(stored.Dump("deadline-miss")) // stored and that recorder's latest
	h.TriggerFlight()
	published.RunEnd(obs.Counters{Events: 1}) // serves the trigger; silent never polls
	live := h.FlightDumps()
	if len(live) != 2 || live[0].Trigger != "deadline-miss" || live[1].Trigger != "trigger" {
		t.Fatalf("live dumps = %+v", live)
	}

	h.End(nil)
	after := h.FlightDumps()
	if len(after) != 2 || after[0] != live[0] || after[1] != live[1] {
		t.Fatalf("dumps changed at End: %+v, want %+v", after, live)
	}
	if s := h.Snapshot(); s.FlightDumps != 2 {
		t.Fatalf("ended snapshot counts %d dumps, want 2", s.FlightDumps)
	}
	if n := h.TriggerFlight(); n != 0 {
		t.Fatalf("TriggerFlight on an ended run = %d, want 0", n)
	}
	h.AttachFlight(obs.NewFlightRecorder(64))
	if n := h.TriggerFlight(); n != 0 {
		t.Fatalf("an ended run attached a recorder")
	}
}

// The registry keeps its last DefaultRecent finished runs; they must
// not keep their flight rings (4096 events × 56 B = 229 KB each).
func TestEndedRunsDoNotPinFlightRings(t *testing.T) {
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	r := New(0)
	before := heapInuse()
	for i := 0; i < 300; i++ {
		h := r.Begin(Meta{Kind: KindBatch})
		f := obs.NewFlightRecorder(-1)
		h.AttachFlight(f)
		f.Event(obs.Event{Kind: obs.KindJobArrival, JobID: i, Task: -1})
		h.End(nil)
	}
	after := heapInuse()
	// 256 retained rings would be 58 MB; 256 retained handles are well
	// under 1 MB. 8 MB leaves room for whatever else the process does.
	if grew := int64(after) - int64(before); grew > 8<<20 {
		t.Fatalf("300 ended runs grew HeapInuse by %d KB, want < 8 MB: finished runs pin their flight rings", grew>>10)
	}
	if got := len(r.List()); got != DefaultRecent {
		t.Fatalf("registry lists %d runs, want the last %d", got, DefaultRecent)
	}
}

// hookBlock is a block of fired events of the paper's seven kinds, the
// first departures of them job departures, each of the first internal
// followed by an engine-internal event (slot, preempt, filler kinds).
func hookBlock(fired, departures, internal int) []obs.Event {
	others := []obs.Kind{obs.KindJobArrival, obs.KindMapTaskStart, obs.KindMapTaskFinish,
		obs.KindReduceTaskStart, obs.KindReduceTaskFinish, obs.KindMapStageComplete}
	var evs []obs.Event
	for i := 0; i < fired; i++ {
		k := others[i%len(others)]
		if i < departures {
			k = obs.KindJobDeparture
		}
		evs = append(evs, obs.Event{Kind: k})
		if i < internal {
			evs = append(evs, obs.Event{Kind: obs.KindMapSlotAlloc + obs.Kind(i)%(obs.KindCount-obs.KindMapSlotAlloc)})
		}
	}
	return evs
}

// TestEngineHook: the hook reads progress from the blocks it is fed —
// events of the paper's seven kinds are events fired, departures are jobs
// done — and RunEnd settles the jobs, not the events: a fork's RunEnd
// counts its prefix, which its stream never carried.
func TestEngineHook(t *testing.T) {
	r := New(4)
	h := r.Begin(Meta{Kind: KindReplay})
	sink := h.EngineHook(100)
	// A block costs the hook one call: it takes blocks whole.
	batch, ok := sink.(obs.BatchSink)
	if !ok {
		t.Fatal("the engine hook is not an obs.BatchSink")
	}
	batch.Events(hookBlock(1000, 20, 700))
	s := h.Snapshot()
	if s.Done != 20 || s.Total != 100 || s.Events != 1000 {
		t.Fatalf("after a block: %+v", s)
	}
	batch.Events(hookBlock(499, 19, 300))
	sink.Event(obs.Event{Kind: obs.KindJobDeparture})
	if s = h.Snapshot(); s.Events != 1500 || s.Done != 40 {
		t.Fatalf("cumulative events = %d, done = %d, want 1500 and 40", s.Events, s.Done)
	}
	sink.RunEnd(obs.Counters{Events: 2000, Jobs: 100})
	s = h.Snapshot()
	if s.Events != 1500 || s.Jobs != 100 || s.Done != 100 {
		t.Fatalf("after RunEnd: %+v", s)
	}
	// Pooled reuse: the next run's counts restart from zero.
	batch.Events(hookBlock(300, 10, 50))
	if s = h.Snapshot(); s.Events != 1800 {
		t.Fatalf("second run events = %d, want 1800", s.Events)
	}
	sink.RunEnd(obs.Counters{Events: 300, Jobs: 100})
	if s = h.Snapshot(); s.Events != 1800 || s.Jobs != 200 {
		t.Fatalf("second RunEnd: events = %d, jobs = %d, want 1800 and 200", s.Events, s.Jobs)
	}
}

func TestIDsSortable(t *testing.T) {
	r := New(4)
	a := r.Begin(Meta{Kind: KindReplay})
	time.Sleep(3 * time.Millisecond)
	b := r.Begin(Meta{Kind: KindReplay})
	if !(strings.Compare(a.ID(), b.ID()) < 0) {
		t.Fatalf("IDs not time-ordered: %s !< %s", a.ID(), b.ID())
	}
	for _, c := range a.ID() {
		if !strings.ContainsRune(crockford, c) {
			t.Fatalf("ID %q contains non-crockford char %q", a.ID(), c)
		}
	}
}

// Running reports whether End has not yet been called.
func (h *Handle) Running() bool { return h != nil && h.end.Load() == nil }
