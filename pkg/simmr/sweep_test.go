package simmr

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simmr/internal/plan"
	"simmr/internal/plan/plantest"
	"simmr/internal/sched/schedtest"
	"simmr/internal/telemetry/telemetrytest"
)

func sweepTrace() *Trace {
	tpl := &Template{
		AppName: "s", NumMaps: 32, NumReduces: 4,
		MapDurations:    constSlice(32, 10),
		FirstShuffle:    constSlice(4, 2),
		TypicalShuffle:  constSlice(4, 4),
		ReduceDurations: constSlice(4, 2),
	}
	tr := &Trace{Jobs: []*Job{
		// Deadline met comfortably at >= 2 slots but blown at 1 slot
		// (32 x 10 s of map work alone exceeds it serially).
		{Arrival: 0, Deadline: 300, Template: tpl},
		{Arrival: 10, Template: tpl.Clone()},
	}}
	tr.Normalize()
	return tr
}

func TestCapacitySweepMonotone(t *testing.T) {
	pts, err := CapacitySweep(sweepTrace(), SweepConfig{
		MapSlotCounts: []int{2, 4, 8, 16, 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Makespan > pts[i-1].Makespan+1e-9 {
			t.Fatalf("makespan not monotone: %v", pts)
		}
	}
	// Square sweep: reduce slots track map slots.
	if pts[0].ReduceSlots != 2 || pts[4].ReduceSlots != 32 {
		t.Fatalf("square sweep broken: %+v", pts)
	}
}

func TestCapacitySweepExplicitGrid(t *testing.T) {
	pts, err := CapacitySweep(sweepTrace(), SweepConfig{
		MapSlotCounts:    []int{4, 8},
		ReduceSlotCounts: []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("grid points = %d", len(pts))
	}
	if pts[1].MapSlots != 4 || pts[1].ReduceSlots != 4 {
		t.Fatalf("grid order wrong: %+v", pts[1])
	}
}

func TestCapacitySweepDeadlineCounting(t *testing.T) {
	pts, err := CapacitySweep(sweepTrace(), SweepConfig{MapSlotCounts: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	// One slot: 64 maps x 10 s serialize; the 500 s deadline is blown.
	if pts[0].DeadlinesMissed != 1 {
		t.Fatalf("missed = %d, want 1", pts[0].DeadlinesMissed)
	}
}

func TestSmallestClusterMeeting(t *testing.T) {
	pts, err := CapacitySweep(sweepTrace(), SweepConfig{
		MapSlotCounts: []int{2, 4, 8, 16, 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	goal := pts[2].Makespan // achievable at 8 slots
	best := SmallestClusterMeeting(pts, goal)
	if best == nil || best.MapSlots != 8 {
		t.Fatalf("best = %+v", best)
	}
	if SmallestClusterMeeting(pts, 1) != nil {
		t.Fatal("impossible goal should return nil")
	}
	// A descending grid: the smallest cluster that meets the goal is
	// last in grid order.
	desc, err := CapacitySweep(sweepTrace(), SweepConfig{MapSlotCounts: []int{64, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if best := SmallestClusterMeeting(desc, desc[1].Makespan); best == nil || best.MapSlots != 8 {
		t.Fatalf("descending grid %+v: best = %+v, want the 8-slot cell", desc, best)
	}
}

func TestCapacitySweepValidation(t *testing.T) {
	if _, err := CapacitySweep(sweepTrace(), SweepConfig{}); err == nil {
		t.Fatal("empty grid should fail")
	}
}

// sparseSweepTrace is 300 multi-tenant jobs a minute apart on average,
// half of them with deadlines: few are active at once, so from a few
// slots up a replay leaves slots unused.
func sparseSweepTrace(t *testing.T) *Trace {
	t.Helper()
	s, err := NewTraceStream(StreamConfig{
		Name: "sparse", Jobs: 300, MeanInterArrival: 60, TemplatePool: 32,
		DeadlineFraction: 0.5, DeadlineSlack: 900,
		Shapes: []WeightedShape{{Shape: MultiTenantShape(), Weight: 1}},
	}, rand.New(rand.NewSource(28)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// denseSweepTrace is a burst: 100 jobs arriving at once, each with 8
// ten-second maps and 8 reduces of 1 000 s, so every cell of the test
// grid fills all its map slots at once and, as the reduces pile up, all
// its reduce slots.
func denseSweepTrace() *Trace {
	tpl := &Template{
		AppName: "dense", NumMaps: 8, NumReduces: 8,
		MapDurations:    constSlice(8, 10),
		FirstShuffle:    constSlice(8, 5),
		TypicalShuffle:  constSlice(8, 5),
		ReduceDurations: constSlice(8, 1000),
	}
	tr := &Trace{Name: "dense"}
	for i := 0; i < 100; i++ {
		tr.Jobs = append(tr.Jobs, &Job{Template: tpl})
	}
	tr.Normalize()
	return tr
}

// TestSweepReuseMatchesReplay: every point of a sweep — replayed, or
// answered by a replay the sweep had finished — is the point an
// independent Replay of its cell gives, at Workers 1 and 4, with and
// without a cache, under every policy family: four built-ins on their
// scheduling index, FIFO forced through the per-slot scan,
// DynamicPriority through a factory, and MinEDF, which sizes jobs by the
// slot totals and so is never answered for. A bare sweep's run registry
// shows by its cached count that the reuse fired on the sparse trace and
// not on the dense one. The pool's copied-jobs count shows that the cells
// replayed after the largest cell followed its trail on the sparse trace
// under the indexed policies other than MinEDF — at Workers 4 on some
// sweep, since a cell claimed while the largest cell runs replays whole
// — and that nothing else copied a job. A sweep observed by a sink per
// cell rides the largest cell's replay through gates, and every sink
// sees its own cell's stream. One observed by its plan alone (Telemetry,
// Runs and flight recorders, as `simmr -sweep -debug-addr` sets up)
// shares as a bare sweep does: no cell rides, and at one worker as many
// cells take a finished replay's answer as in the bare sweep. Either way
// the run registry counts as cached every cell the provenance says was
// not simulated, telemetry counts each simulated replay once, the flight
// dumps are the deadline-miss dumps of simulated cells, and on the
// sparse trace fewer cells replay than the grid has.
func TestSweepReuseMatchesReplay(t *testing.T) {
	mapGrid, reduceGrid := []int{2, 4, 8, 16, 32, 64}, []int{1, 4, 16, 64}
	cells := len(mapGrid) * len(reduceGrid)
	dynamic := func() Policy {
		return NewDynamicPriority(map[int]float64{1: 40, 3: 90, 5: 20}, map[int]float64{1: 2, 3: 3, 5: 1})
	}
	policies := []struct {
		name    string
		mk      func() Policy
		reuses  bool
		follows bool
	}{
		{"fifo", NewFIFO, true, true},
		{"maxedf", NewMaxEDF, true, true},
		{"fair", NewFair, true, true},
		{"capacity", func() Policy { return NewCapacity([]float64{0.6, 0.4}) }, true, true},
		{"scan-fifo", func() Policy { return schedtest.ScanOnly(NewFIFO()) }, true, false},
		{"dynamic", dynamic, true, false},
		{"minedf", NewMinEDF, false, false},
	}
	copied := map[int]uint64{} // by worker count, over the sweeps that may follow
	dumped := 0                // flight dumps checked
	for _, tr := range []*Trace{sparseSweepTrace(t), denseSweepTrace()} {
		for _, pc := range policies {
			want := map[[2]int]SweepPoint{}
			wantStream := map[[2]int]*streamRecord{}
			for _, m := range mapGrid {
				for _, r := range reduceGrid {
					rec := &streamRecord{}
					res, err := Replay(ReplayConfig{MapSlots: m, ReduceSlots: r, MinMapPercentCompleted: 0.05, Sink: rec}, tr, pc.mk())
					if err != nil {
						t.Fatal(err)
					}
					want[[2]int{m, r}] = sweepPoint(0, sweepCell{m, r}, res)
					wantStream[[2]int{m, r}] = rec
				}
			}
			shares := pc.reuses && tr.Name == "sparse"
			bareAnswered := -1 // the bare sweep's at Workers 1 with no cache
			for _, observed := range []string{"bare", "sinks", "telemetry"} {
				for _, workers := range []int{1, 4} {
					for _, cached := range []bool{false, true} {
						t.Run(fmt.Sprintf("%s/%s/%s/workers=%d/cache=%v", tr.Name, pc.name, observed, workers, cached), func(t *testing.T) {
							reg := NewRunRegistry(4)
							var calls atomic.Int64
							cfg := SweepConfig{MapSlotCounts: mapGrid, ReduceSlotCounts: reduceGrid, PolicyFactory: countingFactory(&calls, pc.mk, nil), Workers: workers, Runs: reg}
							var mu sync.Mutex
							streams := map[[2]int]*streamRecord{}
							switch observed {
							case "sinks":
								cfg.SinkFactory = func(m, r int) Sink {
									mu.Lock()
									defer mu.Unlock()
									streams[[2]int{m, r}] = &streamRecord{}
									return streams[[2]int{m, r}]
								}
							case "telemetry":
								cfg.Telemetry, cfg.Flight = NewTelemetry(), -1
							}
							if cached {
								cfg.Cache = NewCache(CacheOptions{})
							}
							tally := plantest.Shortcuts.Watch(tr)
							pts, err := CapacitySweep(tr, cfg)
							if err != nil {
								t.Fatal(err)
							}
							tl := tally()
							n := uint64(tl.Copied)
							switch follows := pc.follows && tr.Name == "sparse" && observed == "bare"; {
							case follows:
								copied[workers] += n
								if workers == 1 && n == 0 {
									t.Fatal("no cell copied a job from the largest cell's trail")
								}
							case n > 0:
								t.Fatalf("%d jobs copied from a trail", n)
							}
							for i, pt := range pts {
								cell := [2]int{pt.MapSlots, pt.ReduceSlots}
								w := want[cell]
								w.Cell = i
								if pt != w || pt.MapSlots != mapGrid[i/len(reduceGrid)] || pt.ReduceSlots != reduceGrid[i%len(reduceGrid)] {
									t.Fatalf("cell %d: sweep point %+v, independent replay %+v", i, pt, w)
								}
								if s := streams[cell]; observed == "sinks" && !reflect.DeepEqual(s, wantStream[cell]) {
									t.Fatalf("cell %d: its sink saw a stream other than its own replay's", i)
								}
							}
							snap := reg.Latest().Snapshot()
							if snap.Done != len(pts) || snap.Total != len(pts) || snap.Phase != "replay" || snap.Jobs != uint64(len(pts)*len(tr.Jobs)) {
								t.Fatalf("run ended %d/%d cells in phase %q with %d jobs", snap.Done, snap.Total, snap.Phase, snap.Jobs)
							}
							if observed == "bare" {
								if workers == 1 && !cached {
									bareAnswered = tl.By[plan.Answered]
								}
								if reuse := snap.Cached > 0; reuse != shares {
									t.Fatalf("%d of %d cells answered by an earlier replay", snap.Cached, len(pts))
								}
								return
							}
							// A cell a gate or a finished replay answered counts as
							// cached; without a cache, a policy is built per replay.
							if snap.Cached != uint64(cells-len(tl.Simulated)) || !cached && calls.Load() != int64(len(tl.Simulated)) {
								t.Fatalf("%d cells counted as cached and %d policies built; the provenance has %d of %d simulated", snap.Cached, calls.Load(), len(tl.Simulated), cells)
							}
							if (len(tl.Simulated) < cells) != shares {
								t.Fatalf("%d of %d observed cells replayed", len(tl.Simulated), cells)
							}
							if observed == "telemetry" {
								if tl.By[plan.Followed] != 0 || workers == 1 && !cached && tl.By[plan.Answered] != bareAnswered {
									t.Fatalf("provenance %v; the bare sweep answered %d", tl.By, bareAnswered)
								}
								missed := map[string]bool{}
								for _, c := range tl.Simulated {
									if want[[2]int{c.MapSlots, c.ReduceSlots}].DeadlinesMissed > 0 {
										missed[fmt.Sprintf("cell-%dx%d", c.MapSlots, c.ReduceSlots)] = true
									}
								}
								dumps, n := reg.Latest().FlightDumps(), len(missed)
								for _, d := range dumps {
									if !missed[d.Label] || d.Trigger != "deadline-miss" {
										t.Fatalf("a %s dump of %s, which is no simulated cell that missed a deadline, or a second one", d.Trigger, d.Label)
									}
									delete(missed, d.Label)
								}
								if len(dumps) != n {
									t.Fatalf("%d flight dumps, want one per simulated cell that missed a deadline: %d", len(dumps), n)
								}
								dumped += len(dumps)
								m := telemetrytest.Scrape(t, cfg.Telemetry.Registry())
								if m["simmr_replays_total"] != float64(len(tl.Simulated)) || m["simmr_jobs_completed_total"] != float64(len(tl.Simulated)*len(tr.Jobs)) ||
									m["simmr_engine_events_total"] != float64(tl.Events) || snap.Events != tl.Events {
									t.Fatalf("telemetry counted %v replays, %v jobs and %v events, the run %d events; want the %d simulated replays' jobs and %d events",
										m["simmr_replays_total"], m["simmr_jobs_completed_total"], m["simmr_engine_events_total"], snap.Events, len(tl.Simulated), tl.Events)
								}
							}
						})
					}
				}
			}
		}
	}
	if dumped == 0 {
		t.Error("no observed sweep dumped a flight recorder")
	}
	for workers, n := range copied {
		t.Logf("Workers %d: %d jobs copied from trails", workers, n)
		if n == 0 {
			t.Errorf("Workers %d: no sweep copied a job from a trail", workers)
		}
	}
}

// A rectangular grid across the sparse trace's knee, shaped like the
// benchmark's sweep-grid: the largest cell answers every column past the
// trace's map peak, and each row below it is answered by its head (the
// claim tests in internal/plan sweep it too).
var kneeGrid = []int{12, 16, 20, 24, 32, 40, 48, 64}

// countingFactory builds mk's policy, counting the call: a sweep calls
// its factory once per cell it replays. hold, when set, runs first with
// the call's 1-based number.
func countingFactory(calls *atomic.Int64, mk func() Policy, hold func(call int64)) func() Policy {
	return func() Policy {
		n := calls.Add(1)
		if hold != nil {
			hold(n)
		}
		return mk()
	}
}

// TestParallelSweepKeepsDenseParallelism: where no replay leaves a slot
// free, or the policy is never answered for (MinEDF), nothing waits:
// every cell replays, and once the first replays are done four are in
// flight at once. Under MinEDF that holds with a sink per cell too: once
// the first replay's policy refuses answers, no cell rides another.
func TestParallelSweepKeepsDenseParallelism(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tr    *Trace
		mk    func() Policy
		sinks bool
	}{
		{"dense/fifo", denseSweepTrace(), NewFIFO, false},
		{"sparse/minedf", sparseSweepTrace(t), NewMinEDF, false},
		{"sparse/minedf/sinks", sparseSweepTrace(t), NewMinEDF, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mapGrid, reduceGrid := []int{2, 4, 8, 16}, []int{1, 4, 16}
			var calls, in atomic.Int64
			all := make(chan struct{})
			var sinks func(m, r int) Sink
			if tc.sinks {
				sinks = func(int, int) Sink { return &streamRecord{} }
			}
			_, err := CapacitySweep(tc.tr, SweepConfig{
				MapSlotCounts: mapGrid, ReduceSlotCounts: reduceGrid, Workers: 4, SinkFactory: sinks,
				PolicyFactory: countingFactory(&calls, tc.mk, func(n int64) {
					if n < 5 || n > 8 {
						return
					}
					if in.Add(1) == 4 {
						close(all)
					}
					select {
					case <-all:
					case <-time.After(10 * time.Second):
						t.Errorf("replay %d waited 10 s for the 5th to 8th to be in flight together", n)
					}
				}),
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, cells := calls.Load(), int64(len(mapGrid)*len(reduceGrid)); got != cells {
				t.Fatalf("%d of %d cells replayed", got, cells)
			}
			select {
			case <-all:
			default:
				t.Fatalf("only %d of the 5th to 8th replays were ever in flight together", in.Load())
			}
		})
	}
}

// TestSweepErrorIsWorkerIndependent: a sweep whose cells fail returns
// the error of the first failing cell in grid order at every worker
// count. The engine refuses a cluster without reduce slots for a trace
// with reduces.
func TestSweepErrorIsWorkerIndependent(t *testing.T) {
	tr := sparseSweepTrace(t)
	sweep := func(workers int) string {
		_, err := CapacitySweep(tr, SweepConfig{MapSlotCounts: []int{4, 8}, ReduceSlotCounts: []int{0, 2, 4}, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: a sweep with no reduce slots succeeded", workers)
		}
		return err.Error()
	}
	want := sweep(1)
	if !strings.Contains(want, "sweep at 4+0 slots") {
		t.Fatalf("serial sweep failed with %q, want the 4+0 cell's error", want)
	}
	for _, workers := range []int{2, 4} {
		for run := 0; run < 10; run++ {
			if got := sweep(workers); got != want {
				t.Fatalf("workers=%d: %q, want %q", workers, got, want)
			}
		}
	}
}
