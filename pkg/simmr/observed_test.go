package simmr

import (
	"context"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/telemetry/telemetrytest"
)

// TestBlockDeliveryScrapedWhileRunning is -race coverage for block
// delivery as a session runs it: every spec's engine feeds a
// MetricsSink, a flight recorder and a telemetry sink through one tee
// while another goroutine reads the metrics sinks, scrapes /metrics and
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
	results, err := ReplayBatchCfg(context.Background(),
		BatchConfig{Workers: 4, Telemetry: tel, Runs: reg, Flight: -1}, specs)
	close(stop)
	scraper.Wait()
	if err != nil {
		t.Fatal(err)
	}

	var observed uint64
	for i, s := range sinks {
		snap := s.Snapshot()
		var byKind uint64
		for _, c := range snap.ByKind {
			byKind += c
		}
		if snap.RunsFinished != 1 || snap.Counters.Events != results[i].Events || snap.Observed != byKind || snap.Observed <= results[i].Events {
			t.Fatalf("sink %d after the batch: %+v (replay fired %d events)", i, snap, results[i].Events)
		}
		observed += snap.Observed
	}
	if got := telemetrytest.Scrape(t, tel.Registry()).Sum("simmr_engine_events_by_kind_total"); got != float64(observed) {
		t.Fatalf("telemetry observed %v events, the metrics sinks %d", got, observed)
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
	rec := &RecordSink{}
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
