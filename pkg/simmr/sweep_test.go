package simmr

import (
	"fmt"
	"math/rand"
	"testing"

	"simmr/internal/sched/schedtest"
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
// independent Replay of its cell gives, at Workers 1 and 4, under every
// policy family: four built-ins on their scheduling index, FIFO forced
// through the per-slot scan, DynamicPriority through a factory, and
// MinEDF, which sizes jobs by the slot totals and so is never answered
// for. The run registry's cached count shows the reuse fired on the
// sparse trace and not on the dense one.
func TestSweepReuseMatchesReplay(t *testing.T) {
	mapGrid, reduceGrid := []int{2, 4, 8, 16, 32, 64}, []int{1, 4, 16, 64}
	dynamic := func() Policy {
		return NewDynamicPriority(map[int]float64{1: 40, 3: 90, 5: 20}, map[int]float64{1: 2, 3: 3, 5: 1})
	}
	policies := []struct {
		name   string
		mk     func() Policy
		reuses bool
	}{
		{"fifo", NewFIFO, true},
		{"maxedf", NewMaxEDF, true},
		{"fair", NewFair, true},
		{"capacity", func() Policy { return NewCapacity([]float64{0.6, 0.4}) }, true},
		{"scan-fifo", func() Policy { return schedtest.ScanOnly(NewFIFO()) }, true},
		{"dynamic", dynamic, true},
		{"minedf", NewMinEDF, false},
	}
	for _, tr := range []*Trace{sparseSweepTrace(t), denseSweepTrace()} {
		for _, pc := range policies {
			want := map[[2]int]SweepPoint{}
			for _, m := range mapGrid {
				for _, r := range reduceGrid {
					res, err := Replay(ReplayConfig{MapSlots: m, ReduceSlots: r, MinMapPercentCompleted: 0.05}, tr, pc.mk())
					if err != nil {
						t.Fatal(err)
					}
					want[[2]int{m, r}] = sweepPoint(0, sweepCell{m, r}, res)
				}
			}
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", tr.Name, pc.name, workers), func(t *testing.T) {
					reg := NewRunRegistry(4)
					cfg := SweepConfig{MapSlotCounts: mapGrid, ReduceSlotCounts: reduceGrid, PolicyFactory: pc.mk, Workers: workers, Runs: reg}
					pts, err := CapacitySweep(tr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i, pt := range pts {
						w := want[[2]int{pt.MapSlots, pt.ReduceSlots}]
						w.Cell = i
						if pt != w || pt.MapSlots != mapGrid[i/len(reduceGrid)] || pt.ReduceSlots != reduceGrid[i%len(reduceGrid)] {
							t.Fatalf("cell %d: sweep point %+v, independent replay %+v", i, pt, w)
						}
					}
					snap := reg.Latest().Snapshot()
					if snap.Done != len(pts) || snap.Total != len(pts) || snap.Phase != "replay" || snap.Jobs != uint64(len(pts)*len(tr.Jobs)) {
						t.Fatalf("run ended %d/%d cells in phase %q with %d jobs", snap.Done, snap.Total, snap.Phase, snap.Jobs)
					}
					if reuse := snap.Cached > 0; reuse != (pc.reuses && tr.Name == "sparse") {
						t.Fatalf("%d of %d cells answered by an earlier replay", snap.Cached, len(pts))
					}
				})
			}
		}
	}
}
