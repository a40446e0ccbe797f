package engine

import (
	"testing"

	"simmr/internal/sched"
)

// With the NoShuffleModel ablation the engine reproduces Mumak's reduce
// model exactly: reduce runtime = wait-for-all-maps + reduce phase.
// 8 maps x 10s on 4 slots -> map end 20; 2 reduces finish at 20 + 3.
func TestNoShuffleModelMatchesMumakSemantics(t *testing.T) {
	cfg := Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.05, NoShuffleModel: true}
	tpl := uniformTemplate(8, 2, 10, 5, 7, 3)
	res, err := Run(cfg, oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish != 23 {
		t.Fatalf("finish = %v, want 23 (mapEnd + reduce, no shuffle)", res.Jobs[0].Finish)
	}
}

// Two reduce waves under NoShuffleModel: second wave adds only its
// reduce phase. 4 reduces on 2 slots: 20+3=23, then 23+3=26.
func TestNoShuffleModelSecondWave(t *testing.T) {
	cfg := Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.05, NoShuffleModel: true}
	tpl := uniformTemplate(8, 4, 10, 5, 7, 3)
	res, err := Run(cfg, oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish != 26 {
		t.Fatalf("finish = %v, want 26", res.Jobs[0].Finish)
	}
}

// NoFirstShuffleSpecialCase: the first-wave reduce replays a cold
// typical shuffle from its own start (t=10 after slowstart), finishing
// at 10+7+3=20 — coincidentally the map end here. The job still departs
// only after the map stage completes.
func TestNoFirstShuffleSpecialCase(t *testing.T) {
	cfg := Config{
		MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.05,
		NoFirstShuffleSpecialCase: true,
	}
	tpl := uniformTemplate(8, 2, 10, 5, 7, 3)
	res, _, reduces := taskSpans(t, cfg, oneJobTrace(tpl), sched.FIFO{})
	out := res.Jobs[0]
	if len(reduces[0]) != 2 {
		t.Fatalf("%d reduce spans, want 2", len(reduces[0]))
	}
	for _, rs := range reduces[0] {
		if rs.End != rs.Start+7+3 {
			t.Fatalf("reduce %d: end %v, want start+typShuffle+reduce = %v",
				rs.Task, rs.End, rs.Start+10)
		}
	}
	if out.Finish < out.MapStageEnd {
		t.Fatalf("job departed before its map stage completed: %v < %v",
			out.Finish, out.MapStageEnd)
	}
}

// A job whose reduces all finish before the map stage (possible under
// the ablation when the map tail is long) must still terminate cleanly.
func TestAblationJobDepartsAfterLateMapStage(t *testing.T) {
	cfg := Config{
		MapSlots: 1, ReduceSlots: 2, MinMapPercentCompleted: 0.05,
		NoFirstShuffleSpecialCase: true,
	}
	// One slot, 5 maps x 10s = 50s map stage; reduces (started at 10)
	// finish at 10+1+1=12 under the ablation.
	tpl := uniformTemplate(5, 2, 10, 1, 1, 1)
	res, err := Run(cfg, oneJobTrace(tpl), sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish != 50 {
		t.Fatalf("finish = %v, want 50 (map stage end)", res.Jobs[0].Finish)
	}
}

// The ablations are strictly less accurate than the full model when
// replaying a trace with real shuffle content.
func TestAblationAccuracyOrdering(t *testing.T) {
	tpl := uniformTemplate(16, 8, 10, 5, 7, 3)
	tr := oneJobTrace(tpl)
	base := Config{MapSlots: 4, ReduceSlots: 4, MinMapPercentCompleted: 0.05}

	fullRes, err := Run(base, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	noShuffleCfg := base
	noShuffleCfg.NoShuffleModel = true
	noShuffleRes, err := Run(noShuffleCfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if noShuffleRes.Jobs[0].Finish >= fullRes.Jobs[0].Finish {
		t.Fatalf("no-shuffle (%v) must underestimate the full model (%v)",
			noShuffleRes.Jobs[0].Finish, fullRes.Jobs[0].Finish)
	}
}
