package experiments

import (
	"fmt"
	"io"

	"simmr/internal/cluster"
	"simmr/internal/metrics"
	"simmr/internal/sched"
	"simmr/internal/workload"
)

// WavesResult reproduces Figures 1 and 2: the progress of map, shuffle
// and reduce tasks of the §II WordCount example (200 maps, 256 reduces)
// under a restricted slot allocation.
type WavesResult struct {
	MapSlots, ReduceSlots int
	MapWaves, ReduceWaves int
	Completion            float64
	MapStageEnd           float64
	Points                []metrics.TimelinePoint
}

// Figure1 runs the example with 128 map and 128 reduce slots: the paper
// observes 2 map waves and 2 reduce waves.
func Figure1(seed int64) (*WavesResult, error) {
	return wavesExperiment(128, 128, seed)
}

// Figure2 runs the example with 64 map and 64 reduce slots: 4 waves of
// each kind.
func Figure2(seed int64) (*WavesResult, error) {
	return wavesExperiment(64, 64, seed)
}

func wavesExperiment(mapSlots, reduceSlots int, seed int64) (*WavesResult, error) {
	// The paper's testbed for this experiment: 64 workers with 2+2
	// slots; the job is granted mapSlots/reduceSlots of them, a multiple
	// of 64 each. Granting a single job N slots is equivalent to a
	// cluster exposing exactly N.
	cfg := TestbedConfig(seed)
	cfg.Workers = 64
	cfg.MapSlotsPerNode = mapSlots / cfg.Workers
	cfg.ReduceSlotsPerNode = reduceSlots / cfg.Workers

	res, err := runTestbedJob(cfg, cluster.Job{Spec: workload.WordCountExample()}, sched.FIFO{})
	if err != nil {
		return nil, err
	}
	jr := res.Jobs[0]

	var maps, shuffles, reduces, reduceTasks []metrics.Interval
	for _, m := range jr.Maps {
		maps = append(maps, metrics.Interval{Start: m.Start, End: m.End})
	}
	for _, r := range jr.Reduces {
		shuffles = append(shuffles, metrics.Interval{Start: r.Start, End: r.SortEnd})
		reduces = append(reduces, metrics.Interval{Start: r.SortEnd, End: r.End})
		// Wave counting uses full slot occupancy (shuffle + reduce): a
		// reduce task holds its slot through both phases.
		reduceTasks = append(reduceTasks, metrics.Interval{Start: r.Start, End: r.End})
	}
	step := jr.Finish / 200
	if step <= 0 {
		step = 1
	}
	return &WavesResult{
		MapSlots:    mapSlots,
		ReduceSlots: reduceSlots,
		MapWaves:    metrics.Waves(maps),
		ReduceWaves: metrics.Waves(reduceTasks),
		Completion:  jr.CompletionTime(),
		MapStageEnd: jr.MapStageEnd,
		Points:      metrics.Timeline(maps, shuffles, reduces, jr.Finish, step),
	}, nil
}

// Render renders the progress series (time, active maps, shuffles,
// reduces) plus a wave summary.
func (r *WavesResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "# WordCount 200 maps / 256 reduces with %d map and %d reduce slots\n",
		r.MapSlots, r.ReduceSlots)
	fmt.Fprintf(w, "# map waves: %d, reduce waves: %d, map stage end: %.1fs, completion: %.1fs\n",
		r.MapWaves, r.ReduceWaves, r.MapStageEnd, r.Completion)
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			f1(p.T), fmt.Sprint(p.Map), fmt.Sprint(p.Shuffle), fmt.Sprint(p.Reduce),
		})
	}
	return writeRows(w, "time\tmap\tshuffle\treduce", rows)
}
