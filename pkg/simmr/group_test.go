package simmr

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/telemetry/telemetrytest"
)

// streamRecord is everything a sink is told about one replay, in order:
// event blocks, sampler calls and the run counters.
type streamRecord struct {
	Stream   []obs.Event
	Depth    [][2]float64
	Progress [][4]float64
	Ends     []obs.Counters
}

func (r *streamRecord) Event(ev obs.Event)     { r.Stream = append(r.Stream, ev) }
func (r *streamRecord) Events(evs []obs.Event) { r.Stream = append(r.Stream, evs...) }
func (r *streamRecord) RunEnd(c obs.Counters)  { r.Ends = append(r.Ends, c) }
func (r *streamRecord) SampleDepth(t float64, d int) {
	r.Depth = append(r.Depth, [2]float64{t, float64(d)})
}
func (r *streamRecord) SampleProgress(t float64, events uint64, done, total int) {
	r.Progress = append(r.Progress, [4]float64{t, float64(events), float64(done), float64(total)})
}

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

// TestBatchFollowersMatchOwnReplay: a batch whose specs share a trace, a
// policy fingerprint and every config field but the slot counts replays
// them once, at the largest cluster, and each other spec's Result and
// whole observed stream — events, sampler calls, run counters — is the
// one its own fresh replay gives: for a follower its gate let through to
// the end, the lead's stream and a copy of the lead's Result; for one it
// cut, the gated prefix and its muted replay together. A gate stays open
// exactly when engine.Answers holds for the lead's Result, and a batch
// that nothing observes forms no group: each spec replays alone. Sparse,
// dense and burst traces under FIFO, MaxEDF, Fair and Capacity, follower
// counts below, at and above the lead's peaks plus duplicate specs, on 1
// and 4 workers. Telemetry and the run registry count every spec as a
// replay, and the engine pool is drawn from once per engine replay.
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
	var mu sync.Mutex
	var answered, cut int
	defer func() { testHookGroup = nil }()

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
			cfgs = append(cfgs, cfgs[0], cfgs[len(cfgs)-1]) // duplicates of a follower and of the lead

			want := make([]*ReplayResult, len(cfgs))
			wantStream := make([]*streamRecord, len(cfgs))
			var wantEvents uint64
			for i, cfg := range cfgs {
				wantStream[i] = &streamRecord{}
				cfg.Sink = wantStream[i]
				if want[i], err = Replay(cfg, tr, pc.mk()); err != nil {
					t.Fatal(err)
				}
				wantEvents += want[i].Events
			}

			// Observed: every spec (sinks, telemetry and the run
			// registry), the even specs by their own sinks, or none.
			for _, observed := range []string{"all", "even", "none"} {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/observed=%s/workers=%d", tr.Name, pc.name, observed, workers), func(t *testing.T) {
						specs := make([]ReplaySpec, len(cfgs))
						streams := make([]*streamRecord, len(cfgs))
						var members []int // the specs that may group
						for i, cfg := range cfgs {
							if observed == "all" || observed == "even" && i%2 == 0 {
								members = append(members, i)
								streams[i] = &streamRecord{}
								cfg.Sink = streams[i]
							}
							specs[i] = ReplaySpec{Name: fmt.Sprintf("spec-%d", i), Config: cfg, Trace: tr, Policy: pc.mk()}
						}
						var lead int
						var followers, cuts []int
						groups := 0
						testHookGroup = func(l int, f, c []int) {
							mu.Lock()
							defer mu.Unlock()
							lead, followers, cuts = l, f, c
							groups++
							answered += len(f) - len(c)
							cut += len(c)
						}
						bcfg := BatchConfig{Workers: workers}
						if observed == "all" {
							bcfg.Telemetry, bcfg.Runs = NewTelemetry(), NewRunRegistry(4)
						}
						got, err := ReplayBatchCfg(context.Background(), bcfg, specs)
						if err != nil {
							t.Fatal(err)
						}
						for i := range specs {
							if !reflect.DeepEqual(got[i], want[i]) {
								t.Fatalf("spec %d (%d+%d slots): Result differs from its own replay", i, cfgs[i].MapSlots, cfgs[i].ReduceSlots)
							}
							if streams[i] != nil && !reflect.DeepEqual(streams[i], wantStream[i]) {
								s, w := streams[i], wantStream[i]
								t.Fatalf("spec %d (%d+%d slots, cut %v): stream of %d events, %d+%d samples, %d ends; its own replay's %d, %d+%d, %d",
									i, cfgs[i].MapSlots, cfgs[i].ReduceSlots, slices.Contains(cuts, i),
									len(s.Stream), len(s.Depth), len(s.Progress), len(s.Ends), len(w.Stream), len(w.Depth), len(w.Progress), len(w.Ends))
							}
						}

						// The observed specs form one group, led by the largest
						// cluster; a follower is cut exactly when Answers refuses
						// it. A spec nothing observes replays alone.
						if len(members) < 2 {
							if groups != 0 {
								t.Fatalf("%d group replays of %d observed specs; want none", groups, len(members))
							}
							return
						}
						grouped := append([]int{lead}, followers...)
						slices.Sort(grouped)
						if groups != 1 || !slices.Equal(grouped, members) {
							t.Fatalf("%d group replays, the last of specs %v; want one of %v", groups, grouped, members)
						}
						for _, i := range members {
							if cfg, l := cfgs[i], cfgs[lead]; cfg.MapSlots+cfg.ReduceSlots > l.MapSlots+l.ReduceSlots {
								t.Fatalf("spec %d (%d+%d) is larger than the lead %d (%d+%d)", i, cfg.MapSlots, cfg.ReduceSlots, lead, l.MapSlots, l.ReduceSlots)
							}
						}
						for _, f := range followers {
							answers := engine.Answers(want[lead], cfgs[lead], cfgs[f], specs[lead].Policy)
							if slices.Contains(cuts, f) == answers {
								t.Fatalf("follower %d (%d+%d) cut=%v, but Answers from the lead (%d+%d, peaks %d+%d) = %v",
									f, cfgs[f].MapSlots, cfgs[f].ReduceSlots, slices.Contains(cuts, f),
									cfgs[lead].MapSlots, cfgs[lead].ReduceSlots, want[lead].PeakMapSlots, want[lead].PeakReduceSlots, answers)
							}
						}
						if observed != "all" {
							return
						}

						m := telemetrytest.Scrape(t, bcfg.Telemetry.Registry())
						if m["simmr_replays_total"] != float64(len(specs)) {
							t.Fatalf("simmr_replays_total = %v, want every spec: %d", m["simmr_replays_total"], len(specs))
						}
						gets := m[`simmr_engine_pool_gets_total{reused="false"}`] + m[`simmr_engine_pool_gets_total{reused="true"}`]
						if gets != float64(1+len(cuts)) {
							t.Fatalf("%v pool gets, want the lead's and one per cut follower: %d", gets, 1+len(cuts))
						}
						snap := bcfg.Runs.Latest().Snapshot()
						if snap.Done != len(specs) || snap.Events != wantEvents || snap.Jobs != uint64(len(specs)*len(tr.Jobs)) {
							t.Fatalf("run ended %d/%d specs, %d events, %d jobs; want all, %d events", snap.Done, snap.Total, snap.Events, snap.Jobs, wantEvents)
						}
					})
				}
			}
		}
	}
	t.Logf("%d followers answered, %d cut", answered, cut)
	if answered == 0 || cut == 0 {
		t.Fatalf("%d followers answered and %d cut: both paths must run", answered, cut)
	}
}

// TestBatchGroupErrorIsLowestSpec: a group whose lead fails hands its
// followers back, and the batch reports the lowest failing spec, as a
// serial batch does, whichever replay failed first. Telemetry observes
// every spec, so the three form one group. The lead is spec 1,
// the largest cluster, which has no reduce slot for the trace's reduces;
// spec 0 has no map slot, and spec 2 replays fine.
func TestBatchGroupErrorIsLowestSpec(t *testing.T) {
	tr := sweepTrace()
	cfgs := []ReplayConfig{{MapSlots: 0, ReduceSlots: 4}, {MapSlots: 100, ReduceSlots: 0}, {MapSlots: 8, ReduceSlots: 8}}
	for _, workers := range []int{1, 4} {
		specs := make([]ReplaySpec, len(cfgs))
		for i, cfg := range cfgs {
			cfg.MinMapPercentCompleted = 0.05
			specs[i] = ReplaySpec{Config: cfg, Trace: tr, Policy: NewFIFO()}
		}
		groups := 0
		testHookGroup = func(int, []int, []int) { groups++ }
		_, err := ReplayBatchCfg(context.Background(), BatchConfig{Workers: workers, Telemetry: NewTelemetry()}, specs)
		testHookGroup = nil
		if groups != 1 {
			t.Fatalf("Workers %d: %d group replays, want 1", workers, groups)
		}
		if err == nil || !strings.Contains(err.Error(), "spec 0 ") {
			t.Fatalf("Workers %d: err = %v, want spec 0's", workers, err)
		}
	}
}
