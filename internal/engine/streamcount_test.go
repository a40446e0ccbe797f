package engine

import (
	"math/rand"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/runs"
	"simmr/internal/synth"
)

// streamCount counts what a stream tells of a replay's progress (the obs
// package's contract): its events of the paper's seven kinds, and its
// job departures; and its preemptions, to show a row ran some.
type streamCount struct {
	fired      uint64
	departures int
	preempts   uint64
}

func (c *streamCount) Event(ev obs.Event) { c.Events([]obs.Event{ev}) }

func (c *streamCount) Events(evs []obs.Event) {
	for _, ev := range evs {
		if ev.Kind < obs.KindMapSlotAlloc {
			c.fired++
		}
		switch ev.Kind {
		case obs.KindJobDeparture:
			c.departures++
		case obs.KindPreempt:
			c.preempts++
		}
	}
}

func (c *streamCount) RunEnd(obs.Counters) {}

// TestStreamCountsFiredEvents is the contract the run registry's engine
// hook reads progress by: a replay's stream carries exactly Result.Events
// events of the paper's seven kinds and one departure per job, and a
// fork's stream exactly the events fired after its branch point — under
// every indexed policy, both shuffle ablations, map-task preemption and
// both ends of the slowstart range.
func TestStreamCountsFiredEvents(t *testing.T) {
	tr, err := synth.MultiTenantTrace(400, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"slowstart-0.05", base},
		{"slowstart-1", Config{MapSlots: 64, ReduceSlots: 64, MinMapPercentCompleted: 1}},
		{"no-shuffle", Config{MapSlots: 64, ReduceSlots: 64, MinMapPercentCompleted: 0.05, NoShuffleModel: true}},
		{"no-first-shuffle", Config{MapSlots: 64, ReduceSlots: 64, MinMapPercentCompleted: 0.05, NoFirstShuffleSpecialCase: true}},
		{"preempt", Config{MapSlots: 16, ReduceSlots: 16, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}},
	}
	var preemptions uint64
	for _, cc := range cfgs {
		for _, pc := range diffPolicies() {
			name := cc.name + "/" + pc.name
			count := &streamCount{}
			cfg := cc.cfg
			cfg.Sink = count
			res, err := Run(cfg, tr, pc.mk())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if count.fired != res.Events || count.departures != len(tr.Jobs) {
				t.Fatalf("%s: stream carries %d fired events and %d departures, Result.Events %d over %d jobs",
					name, count.fired, count.departures, res.Events, len(tr.Jobs))
			}
			if cc.cfg.PreemptMapTasks {
				preemptions += count.preempts
			}
			for _, at := range []uint64{0, 1, 500, 2000} {
				e, err := New(cc.cfg, tr, pc.mk())
				if err == nil {
					_, err = e.RunEvents(at)
				}
				var snap *Snapshot
				if err == nil {
					snap, err = e.Snapshot()
				}
				suffix := &streamCount{}
				var f *Engine
				if err == nil {
					f, err = snap.Fork(ForkOptions{Sink: suffix})
				}
				var forked *Result
				if err == nil {
					forked, err = f.Run()
				}
				if err != nil {
					t.Fatalf("%s, fork at %d: %v", name, at, err)
				}
				if want := forked.Events - snap.Events(); suffix.fired != want {
					t.Fatalf("%s, fork at %d (sealed at %d): its stream carries %d fired events, want %d",
						name, at, snap.Events(), suffix.fired, want)
				}
			}
		}
	}
	if preemptions == 0 {
		t.Fatal("no map task was preempted: the preempt rows test nothing")
	}
}

// TestEngineHookAtEveryPause: a run fed by the engine hook alone reports,
// at every pause of a replay, the events its engine's snapshot has fired
// and the jobs departed so far (of the trace's, once a block has
// arrived), and after RunEnd the Result's totals.
func TestEngineHookAtEveryPause(t *testing.T) {
	tr, err := synth.MultiTenantTrace(400, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	reg := runs.New(1)
	hooked := func() (*runs.Handle, Config) {
		h := reg.Begin(runs.Meta{Kind: runs.KindReplay})
		cfg := DefaultConfig()
		cfg.Sink = obs.Tee(&obs.RecordSink{}, h.EngineHook(len(tr.Jobs)))
		return h, cfg
	}
	pauses := 0
	for done := false; !done; pauses++ {
		// A snapshot seals its engine, so each pause is a replay of its own.
		h, cfg := hooked()
		e, err := New(cfg, tr, diffPolicies()[1].mk())
		if err == nil {
			done, err = e.RunEvents(uint64(pauses) * 257)
		}
		var snap *Snapshot
		if err == nil {
			snap, err = e.Snapshot()
		}
		if err != nil {
			t.Fatal(err)
		}
		s := h.Snapshot()
		if departed := len(tr.Jobs) - e.remaining; s.Events != snap.Events() || s.Done != departed || s.Events > 0 && s.Total != len(tr.Jobs) {
			t.Fatalf("paused at %d events fired, %d of %d jobs departed: the run reports %d events, %d of %d done",
				snap.Events(), departed, len(tr.Jobs), s.Events, s.Done, s.Total)
		}
	}
	if pauses < 10 {
		t.Fatalf("only %d pauses: the replay is too short to test", pauses)
	}
	h, cfg := hooked()
	res, err := Run(cfg, tr, diffPolicies()[1].mk())
	if err != nil {
		t.Fatal(err)
	}
	if s := h.Snapshot(); s.Events != res.Events || s.Jobs != uint64(len(tr.Jobs)) || s.Done != len(tr.Jobs) {
		t.Fatalf("after RunEnd the run reports %d events, %d jobs, %d done; the Result has %d events over %d jobs",
			s.Events, s.Jobs, s.Done, res.Events, len(tr.Jobs))
	}
}
