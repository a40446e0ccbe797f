package simmr

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/plan"
	"simmr/internal/plan/plantest"
	"simmr/internal/telemetry/telemetrytest"
)

// streamRecord is everything a sink is told about one replay, in order:
// event blocks and the run counters.
type streamRecord struct {
	Stream []obs.Event
	Ends   []obs.Counters
}

func (r *streamRecord) Event(ev obs.Event)     { r.Stream = append(r.Stream, ev) }
func (r *streamRecord) Events(evs []obs.Event) { r.Stream = append(r.Stream, evs...) }
func (r *streamRecord) RunEnd(c obs.Counters)  { r.Ends = append(r.Ends, c) }

// groupTraces are a sparse stream, whose cluster often empties, a dense
// production trace and a burst, whose jobs all arrive at once.
func groupTraces(t *testing.T) []*Trace {
	t.Helper()
	prod, err := ProductionTrace(4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	burst, err := MultiTenantTrace(60, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	burst.Name = "burst"
	for _, j := range burst.Jobs {
		j.Arrival = 0
	}
	return []*Trace{sparseSweepTrace(t), prod, burst}
}

// countsAround returns slot counts of a kind below, at and above a
// replay's peak of that kind on a cluster of ran slots, and ran itself.
func countsAround(peak, ran int) []int {
	var out []int
	for _, c := range []int{peak / 2, peak, peak + 1, ran} {
		if c >= 1 && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// leadOf is the spec a batch group of cfgs is led by: the largest
// cluster (most slots, then most map slots), the first in spec order on
// a tie.
func leadOf(cfgs []ReplayConfig) int {
	lead := 0
	for i, c := range cfgs {
		l := cfgs[lead]
		if s, ls := c.MapSlots+c.ReduceSlots, l.MapSlots+l.ReduceSlots; s > ls || s == ls && c.MapSlots > l.MapSlots {
			lead = i
		}
	}
	return lead
}

// ridden is how many replays a one-worker fan-out of observed specs of
// cfgs makes, whose own replays gave want: the largest cluster replays
// first, then each time the first spec in visit order still waiting,
// and each replay settles every waiting spec Answers accepts from it.
func ridden(cfgs []ReplayConfig, want []*ReplayResult, p Policy) int {
	waiting := make([]int, len(cfgs))
	for i := range waiting {
		waiting[i] = i
	}
	slices.SortFunc(waiting, func(a, b int) int {
		return cmp.Or(cmp.Compare(cfgs[a].MapSlots, cfgs[b].MapSlots), cmp.Compare(cfgs[a].ReduceSlots, cfgs[b].ReduceSlots), cmp.Compare(a, b))
	})
	lead := leadOf(cfgs)
	waiting = append([]int{lead}, slices.DeleteFunc(waiting, func(i int) bool { return i == lead })...)
	replays := 0
	for ; len(waiting) > 0; replays++ {
		l := waiting[0]
		waiting = slices.DeleteFunc(waiting[1:], func(j int) bool { return engine.Answers(want[l], cfgs[l], cfgs[j], p) })
	}
	return replays
}

// TestBatchFollowersMatchOwnReplay: a batch whose specs share a trace, a
// policy fingerprint and every config field but the slot counts forms
// one group, and every spec's Result and whole observed stream — events,
// sampler calls, run counters — is the one its own fresh replay gives.
// The largest cluster leads. An observed spec rides it through a gate:
// one its gate let through to the end gets the lead's stream and a copy
// of the lead's Result; one it cut, the gated prefix and its muted
// replay together. A gate stays open exactly when engine.Answers holds
// for the Result of the replay it rides, which the engine pool shows: on
// one worker it is drawn from once per replay that rule leaves to make
// (ridden); on four, once for the lead and at most once more per spec
// the lead's gate cut, as a cut spec may ride a later replay before its
// own (TestLeadSettlesWhatAnswersAccepts in internal/plan checks each
// gate of a lead's replay). A bare spec that a finished
// replay answers takes a copy of its Result, counted as cached: on one
// worker every one the lead answers. With a cache, every spec is looked
// up before the lead starts, so a repeat of an earlier spec's config
// misses too and settles by the same rules. Sparse, dense and burst traces under FIFO, MaxEDF, Fair and
// Capacity; follower counts below, at and above the lead's peaks plus
// duplicate specs; every spec observed (sinks, telemetry), the even
// specs by their own sinks, or none; 1 and 4 workers; with and without a
// cache. Telemetry and the run registry count the replays the
// provenance says were simulated, once each, and every other spec as
// cached. Last, a bare batch of a capacity sweep's cells replays no more
// of them than the sweep does.
func TestBatchFollowersMatchOwnReplay(t *testing.T) {
	policies := []struct {
		name string
		mk   func() Policy
	}{
		{"fifo", NewFIFO},
		{"maxedf", NewMaxEDF},
		{"fair", NewFair},
		{"capacity", func() Policy { return NewCapacity([]float64{0.6, 0.4}) }},
	}
	var answered, cut, reused int

	for _, tr := range groupTraces(t) {
		for _, pc := range policies {
			const ran = 48
			cfgOf := func(m, r int) ReplayConfig {
				return ReplayConfig{MapSlots: m, ReduceSlots: r, MinMapPercentCompleted: 0.05}
			}
			top, err := Replay(cfgOf(ran, ran), tr, pc.mk())
			if err != nil {
				t.Fatal(err)
			}
			// Each kind's counts beside the other kind at ran, then both
			// kinds moved together.
			maps, reduces := countsAround(top.PeakMapSlots, ran), countsAround(top.PeakReduceSlots, ran)
			var cfgs []ReplayConfig
			add := func(m, r int) {
				if c := cfgOf(m, r); !slices.Contains(cfgs, c) {
					cfgs = append(cfgs, c)
				}
			}
			for _, m := range maps {
				add(m, ran)
			}
			for _, r := range reduces {
				add(ran, r)
			}
			for i := range min(len(maps), len(reduces)) {
				add(maps[i], reduces[i])
			}
			distinct := len(cfgs)
			cfgs = append(cfgs, cfgs[0], cfgs[len(cfgs)-1]) // duplicates of a follower and of the lead

			want := make([]*ReplayResult, len(cfgs))
			wantStream := make([]*streamRecord, len(cfgs))
			for i, cfg := range cfgs {
				wantStream[i] = &streamRecord{}
				cfg.Sink = wantStream[i]
				if want[i], err = Replay(cfg, tr, pc.mk()); err != nil {
					t.Fatal(err)
				}
			}
			// What the lead's replay settles: the specs it answers (an open
			// gate), and the ones it does not (a cut), first among the
			// distinct configs and then among the duplicates.
			lead := leadOf(cfgs)
			var answers, cuts [2]int
			for f := range cfgs {
				dup := min(f/distinct, 1)
				switch {
				case f == lead:
				case engine.Answers(want[lead], cfgs[lead], cfgs[f], pc.mk()):
					answers[dup]++
				default:
					cuts[dup]++
				}
			}

			for _, observed := range []string{"all", "even", "none"} {
				for _, workers := range []int{1, 4} {
					for _, cached := range []bool{false, true} {
						t.Run(fmt.Sprintf("%s/%s/observed=%s/workers=%d/cache=%v", tr.Name, pc.name, observed, workers, cached), func(t *testing.T) {
							specs := make([]ReplaySpec, len(cfgs))
							streams := make([]*streamRecord, len(cfgs))
							for i, cfg := range cfgs {
								if observed == "all" || observed == "even" && i%2 == 0 {
									streams[i] = &streamRecord{}
									cfg.Sink = streams[i]
								}
								specs[i] = ReplaySpec{Name: fmt.Sprintf("spec-%d", i), Config: cfg, Trace: tr, Policy: pc.mk()}
							}
							bcfg := BatchConfig{Workers: workers, Runs: NewRunRegistry(4)}
							if observed == "all" {
								bcfg.Telemetry = NewTelemetry()
							}
							if cached {
								bcfg.Cache = NewCache(CacheOptions{})
							}
							tally := plantest.Shortcuts.Watch(tr)
							got, err := ReplayBatchCfg(context.Background(), bcfg, specs)
							tl := tally()
							if err != nil {
								t.Fatal(err)
							}
							for i := range specs {
								if !reflect.DeepEqual(got[i], want[i]) {
									t.Fatalf("spec %d (%d+%d slots): Result differs from its own replay", i, cfgs[i].MapSlots, cfgs[i].ReduceSlots)
								}
								if s, w := streams[i], wantStream[i]; s != nil && !reflect.DeepEqual(s, w) {
									t.Fatalf("spec %d (%d+%d slots): stream of %d events, %d ends; its own replay's %d, %d",
										i, cfgs[i].MapSlots, cfgs[i].ReduceSlots,
										len(s.Stream), len(s.Ends), len(w.Stream), len(w.Ends))
								}
							}
							if st := bcfg.Cache.Stats(); st.Hits != 0 || cached && st.Misses != uint64(len(specs)) {
								t.Fatalf("cache saw %d hits / %d misses, want 0 / %d", st.Hits, st.Misses, len(specs))
							}
							snap := bcfg.Runs.Latest().Snapshot()
							if snap.Done != len(specs) || snap.Jobs != uint64(len(specs)*len(tr.Jobs)) {
								t.Fatalf("run ended %d/%d specs with %d jobs", snap.Done, snap.Total, snap.Jobs)
							}

							switch observed {
							case "all":
								m := telemetrytest.Scrape(t, bcfg.Telemetry.Registry())
								if m["simmr_replays_total"] != float64(len(tl.Simulated)) {
									t.Fatalf("simmr_replays_total = %v, want every spec the provenance has simulated: %d", m["simmr_replays_total"], len(tl.Simulated))
								}
								// A spec the lead's gate cuts may ride a later replay before
								// its own; on one worker, exactly the replays rides leaves to
								// make are made.
								wantCuts := cuts[0] + cuts[1]
								gets := m[`simmr_engine_pool_gets_total{reused="false"}`] + m[`simmr_engine_pool_gets_total{reused="true"}`]
								if workers == 1 {
									if want := ridden(cfgs, want, pc.mk()); gets != float64(want) {
										t.Fatalf("%v pool gets, want the %d replays that each answer the riders Answers accepts", gets, want)
									}
								} else if gets < 1 || gets > float64(1+wantCuts) || wantCuts > 0 && gets < 2 {
									t.Fatalf("%v pool gets, want the lead's and at most one per spec it cuts: %d", gets, 1+wantCuts)
								}
								// The run counts the hits and followers as cached, and the
								// events of the replays the engine made.
								if snap.Cached != uint64(len(specs)-len(tl.Simulated)) || snap.Events != tl.Events || m["simmr_engine_events_total"] != float64(tl.Events) {
									t.Fatalf("run ended with %d cached, %d events, telemetry %v events; want %d, %d", snap.Cached, snap.Events, m["simmr_engine_events_total"], len(specs)-len(tl.Simulated), tl.Events)
								}
								if workers == 1 && !cached {
									answered, cut = answered+answers[0]+answers[1], cut+cuts[0]+cuts[1]
								}
							case "none":
								byLead := answers[0] + answers[1]
								if n := int(snap.Cached); workers == 1 && n < byLead {
									t.Fatalf("%d specs taken from a finished replay, but the lead answers %d", n, byLead)
								} else if workers == 1 && !cached {
									reused += n
								}
							}
						})
					}
				}
			}
		}
	}
	t.Logf("observed: %d followers answered, %d cut; bare: %d taken from a finished replay", answered, cut, reused)
	if answered == 0 || cut == 0 || reused == 0 {
		t.Fatalf("%d followers answered, %d cut, %d bare specs answered: every path must run", answered, cut, reused)
	}

	tr := sparseSweepTrace(t)
	var calls atomic.Int64
	if _, err := CapacitySweep(tr, SweepConfig{MapSlotCounts: kneeGrid, ReduceSlotCounts: kneeGrid, Workers: 1,
		PolicyFactory: countingFactory(&calls, NewFIFO, nil)}); err != nil {
		t.Fatal(err)
	}
	var specs []ReplaySpec
	for _, m := range kneeGrid {
		for _, r := range kneeGrid {
			specs = append(specs, ReplaySpec{Config: ReplayConfig{MapSlots: m, ReduceSlots: r, MinMapPercentCompleted: 0.05}, Trace: tr, Policy: NewFIFO()})
		}
	}
	reg := NewRunRegistry(4)
	if _, err := ReplayBatchCfg(context.Background(), BatchConfig{Workers: 1, Runs: reg}, specs); err != nil {
		t.Fatal(err)
	}
	if replays := int64(len(specs)) - int64(reg.Latest().Snapshot().Cached); replays > calls.Load() {
		t.Fatalf("a bare batch of the sweep's %d cells replayed %d of them; the sweep replayed %d", len(specs), replays, calls.Load())
	}
}

// TestBatchRepeatIsAnswered: a bare spec that repeats another's config
// takes that spec's answer whatever the first replay's peaks are — a
// replay that held every slot of both kinds answers its own config too
// (engine.Answers). Two identical FIFO specs on one worker, at slot
// counts the trace saturates and at one it does not, settle as one
// simulated and one answered, and neither is replayed along a trail.
func TestBatchRepeatIsAnswered(t *testing.T) {
	tr, err := MultiTenantTrace(200, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	saturated := 0
	for _, n := range []int{1, 2, 4, 8} {
		cfg := DefaultReplayConfig()
		cfg.MapSlots, cfg.ReduceSlots = n, n
		specs := []ReplaySpec{
			{Name: "first", Config: cfg, Trace: tr, Policy: NewFIFO()},
			{Name: "repeat", Config: cfg, Trace: tr, Policy: NewFIFO()},
		}
		tally := plantest.Shortcuts.Watch(tr)
		got, err := ReplayBatchCfg(context.Background(), BatchConfig{Workers: 1}, specs)
		tl := tally()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("%d+%d slots: the repeat's Result differs from the first's", n, n)
		}
		if got[0].PeakMapSlots == n && got[0].PeakReduceSlots == n {
			saturated++
		}
		if tl.By[plan.Simulated] != 1 || tl.By[plan.Answered] != 1 || tl.Copied != 0 {
			t.Errorf("%d+%d slots (peaks %d+%d): provenance %v, %d jobs copied; want 1 simulated, 1 answered, none copied",
				n, n, got[0].PeakMapSlots, got[0].PeakReduceSlots, tl.By, tl.Copied)
		}
	}
	if saturated == 0 {
		t.Fatal("no replay held every slot of both kinds: the saturated case is untested")
	}
}
