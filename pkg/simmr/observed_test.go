package simmr

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/plan"
	"simmr/internal/plan/plantest"
	"simmr/internal/telemetry/telemetrytest"
)

// TestBlockDeliveryScrapedWhileRunning is -race coverage for block
// delivery as a session runs it: each replay feeds its spec's
// MetricsSink, a flight recorder and a telemetry sink through one tee,
// and the specs riding it their own MetricsSinks through gates, while
// another goroutine reads the metrics sinks, scrapes /metrics and
// snapshots the run. A reader may trail an engine by a block, never see
// a count go back, and finds everything once the batch has returned.
func TestBlockDeliveryScrapedWhileRunning(t *testing.T) {
	tr, err := MultiTenantTrace(300, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	tel, reg := NewTelemetry(), NewRunRegistry(4)
	const n = 8
	sinks := make([]*MetricsSink, n)
	specs := make([]ReplaySpec, n)
	for i := range specs {
		sinks[i] = NewMetricsSink()
		specs[i] = ReplaySpec{Trace: tr, Config: ReplayConfig{Sink: sinks[i]}}
		if i%2 == 1 {
			specs[i].Policy = NewMaxEDF()
		}
	}

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		seen := make([]uint64, n)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, s := range sinks {
				snap := s.Snapshot()
				if snap.Observed < seen[i] {
					t.Errorf("sink %d: observed count went from %d to %d", i, seen[i], snap.Observed)
					return
				}
				seen[i] = snap.Observed
			}
			if err := tel.Registry().WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if h := reg.Latest(); h != nil {
				h.Snapshot()
				h.TriggerFlight()
			}
		}
	}()
	tally := plantest.Shortcuts.Watch(tr)
	results, err := ReplayBatchCfg(context.Background(),
		BatchConfig{Workers: 4, Telemetry: tel, Runs: reg, Flight: -1}, specs)
	tl := tally()
	close(stop)
	scraper.Wait()
	if err != nil {
		t.Fatal(err)
	}

	for i, s := range sinks {
		snap := s.Snapshot()
		var byKind uint64
		for _, c := range snap.ByKind {
			byKind += c
		}
		if snap.RunsFinished != 1 || snap.Counters.Events != results[i].Events || snap.Observed != byKind || snap.Observed <= results[i].Events {
			t.Fatalf("sink %d after the batch: %+v (replay fired %d events)", i, snap, results[i].Events)
		}
	}
	// Each policy's specs share one config: one replay per policy, which
	// the other three ride. Telemetry sees the two replays, as sinks 0
	// and 1 do.
	if len(tl.Simulated) != 2 || tl.By[plan.Followed] != n-2 {
		t.Fatalf("provenance %+v, want one replay per policy and %d followers", tl, n-2)
	}
	if got, want := telemetrytest.Scrape(t, tel.Registry()).Sum("simmr_engine_events_by_kind_total"), sinks[0].Snapshot().Observed+sinks[1].Snapshot().Observed; got != float64(want) {
		t.Fatalf("telemetry observed %v events, the metrics sinks of the two replays %d", got, want)
	}
}

// stallAfter is FIFO until its map grants run out; then the replay
// deadlocks. Not a built-in value, so the engine drives it through the
// paper's two calls.
type stallAfter struct {
	Policy
	grants int
}

func (p *stallAfter) ChooseNextMapTask(q []*JobInfo) int {
	if p.grants == 0 {
		return -1
	}
	i := p.Policy.ChooseNextMapTask(q)
	if i >= 0 {
		p.grants--
	}
	return i
}

// A failed spec's "error" flight dump ends with the last events the
// engine handled: they were delivered before the error came back.
func TestFailedSpecDeliversItsFlightDump(t *testing.T) {
	tr, err := MultiTenantTrace(300, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.RecordSink{}
	reg := NewRunRegistry(4)
	_, err = ReplayBatchCfg(context.Background(), BatchConfig{Workers: 1, Runs: reg, Flight: 256}, []ReplaySpec{{
		Name: "stalls", Trace: tr, Config: ReplayConfig{Sink: rec}, Policy: &stallAfter{Policy: NewFIFO(), grants: 900},
	}})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("batch error = %v, want the deadlock", err)
	}
	dumps := reg.Latest().FlightDumps()
	if len(dumps) != 1 || dumps[0].Trigger != "error" || dumps[0].Label != "stalls" || dumps[0].Ended {
		t.Fatalf("dumps = %+v, want one unfinished \"error\" dump", dumps)
	}
	// The engine stopped on an empty event queue, so every task it
	// started had finished; a stream cut short of the failure would be
	// missing the last finishes.
	kinds := map[EngineEventKind]int{}
	for _, ev := range rec.Events {
		kinds[ev.Kind]++
	}
	if kinds[obs.KindMapTaskStart] != 900 || kinds[obs.KindMapTaskFinish] != 900 ||
		kinds[obs.KindReduceTaskStart] != kinds[obs.KindReduceTaskFinish] {
		t.Fatalf("stream stops before the failure: %d/%d map and %d/%d reduce tasks started/finished",
			kinds[obs.KindMapTaskStart], kinds[obs.KindMapTaskFinish], kinds[obs.KindReduceTaskStart], kinds[obs.KindReduceTaskFinish])
	}
	d := dumps[0]
	if len(rec.Events) < 2000 || d.Dropped+uint64(len(d.Events)) != uint64(len(rec.Events)) {
		t.Fatalf("dump covers %d+%d events, the spec's own sink recorded %d", d.Dropped, len(d.Events), len(rec.Events))
	}
	for i, ev := range d.Events {
		if want := rec.Events[int(d.Dropped)+i]; ev != want {
			t.Fatalf("dump event %d is %+v, the stream has %+v", i, ev, want)
		}
	}
}

// TestPlanObservedBatchSharesAsBare: a batch of a capacity sweep's cells
// that only the plan observes — Telemetry, Runs and flight recorders, no
// sink of its own — shares replays as a bare batch does, at Workers 1
// and 4: no spec rides a replay, as many take a finished replay's answer
// as in a bare batch at one worker, and the Results are the bare batch's.
// The plan's observers see each simulated event once: simmr_replays_total
// is the simulated settlements, the run's events are theirs, and the
// flight dumps are exactly the deadline-miss dumps of the simulated specs
// that missed a deadline. TestSweepReuseMatchesReplay checks the same of
// a sweep.
func TestPlanObservedBatchSharesAsBare(t *testing.T) {
	tr := sparseSweepTrace(t)
	var specs []ReplaySpec
	for _, m := range []int{2, 4, 8, 16, 32, 64} {
		for _, r := range []int{1, 4, 16, 64} {
			specs = append(specs, ReplaySpec{Name: fmt.Sprintf("cell-%dx%d", m, r), Config: ReplayConfig{MapSlots: m, ReduceSlots: r}, Trace: tr, Policy: NewFIFO()})
		}
	}
	tally := plantest.Shortcuts.Watch(tr)
	bare, err := ReplayBatchCfg(context.Background(), BatchConfig{Workers: 1}, specs)
	bareTally := tally()
	if err != nil {
		t.Fatal(err)
	}
	if bareTally.By[plan.Answered] == 0 {
		t.Fatal("the bare batch answered no spec; the test needs one that shares")
	}
	for _, workers := range []int{1, 4} {
		tel, reg := NewTelemetry(), NewRunRegistry(4)
		tally := plantest.Shortcuts.Watch(tr)
		got, err := ReplayBatchCfg(context.Background(), BatchConfig{Workers: workers, Telemetry: tel, Runs: reg, Flight: -1}, specs)
		tl := tally()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, bare) {
			t.Fatalf("Workers %d: the observed batch's Results differ from the bare batch's", workers)
		}
		if tl.By[plan.Followed] != 0 || workers == 1 && tl.By[plan.Answered] != bareTally.By[plan.Answered] {
			t.Fatalf("Workers %d: provenance %v; the bare batch answered %d", workers, tl.By, bareTally.By[plan.Answered])
		}
		m := telemetrytest.Scrape(t, tel.Registry())
		snap := reg.Latest().Snapshot()
		if m["simmr_replays_total"] != float64(len(tl.Simulated)) || snap.Events != tl.Events || snap.Cached != uint64(len(specs)-len(tl.Simulated)) {
			t.Fatalf("Workers %d: simmr_replays_total %v, run events %d and %d cached; the provenance has %d simulated replays of %d events",
				workers, m["simmr_replays_total"], snap.Events, snap.Cached, len(tl.Simulated), tl.Events)
		}
		missed := map[string]bool{}
		for _, c := range tl.Simulated {
			i := slices.IndexFunc(specs, func(s ReplaySpec) bool {
				return s.Config.MapSlots == c.MapSlots && s.Config.ReduceSlots == c.ReduceSlots
			})
			if slices.ContainsFunc(bare[i].Jobs, func(j JobOutcome) bool { return j.ExceededDeadline() }) {
				missed[specs[i].Name] = true
			}
		}
		dumps, n := reg.Latest().FlightDumps(), len(missed)
		for _, d := range dumps {
			if !missed[d.Label] || d.Trigger != "deadline-miss" {
				t.Fatalf("Workers %d: a %s dump of %s, which is no simulated spec that missed a deadline, or a second one", workers, d.Trigger, d.Label)
			}
			delete(missed, d.Label)
		}
		if n == 0 || len(dumps) != n {
			t.Fatalf("Workers %d: %d flight dumps, want one per simulated spec that missed a deadline: %d", workers, len(dumps), n)
		}
	}
}
