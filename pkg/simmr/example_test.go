package simmr_test

import (
	"fmt"

	"simmr/pkg/simmr"
)

// Example replays a two-job workload under FIFO — the minimal SimMR
// session.
func Example() {
	tpl := &simmr.Template{
		AppName:         "example",
		NumMaps:         8,
		NumReduces:      2,
		MapDurations:    []float64{10, 10, 10, 10, 10, 10, 10, 10},
		FirstShuffle:    []float64{5, 5},
		TypicalShuffle:  []float64{7, 7},
		ReduceDurations: []float64{3, 3},
	}
	tr := &simmr.Trace{Jobs: []*simmr.Job{
		{Name: "first", Arrival: 0, Template: tpl},
		{Name: "second", Arrival: 30, Template: tpl.Clone()},
	}}
	tr.Normalize()

	cfg := simmr.ReplayConfig{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.05}
	res, err := simmr.Replay(cfg, tr, simmr.NewFIFO())
	if err != nil {
		panic(err)
	}
	for _, j := range res.Jobs {
		fmt.Printf("%s: %.0f s\n", j.Name, j.CompletionTime())
	}
	// Output:
	// first: 28 s
	// second: 28 s
}
