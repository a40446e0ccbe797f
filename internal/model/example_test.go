package model_test

import (
	"fmt"

	"simmr/internal/model"
	"simmr/internal/trace"
)

// ExampleMinimalSlots sizes a MinEDF allocation for a deadline — the
// §V-A inverse problem.
func ExampleMinimalSlots() {
	tpl := &trace.Template{
		AppName:         "sized",
		NumMaps:         100,
		NumReduces:      20,
		MapDurations:    repeat(100, 10),
		FirstShuffle:    repeat(20, 4),
		TypicalShuffle:  repeat(20, 6),
		ReduceDurations: repeat(20, 3),
	}
	alloc := model.MinimalSlots(tpl.Profile(), 300, 64, 64)
	fmt.Printf("feasible=%v slots=%d+%d\n", alloc.Feasible, alloc.MapSlots, alloc.ReduceSlots)
	// Output:
	// feasible=true slots=5+3
}

func repeat(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}
