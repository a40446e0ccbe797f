package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"simmr/internal/plan"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// PreemptionRow is one arrival-rate point of the preemption ablation.
type PreemptionRow struct {
	InterArrivalMean float64
	// NoPreempt is the mean relative-deadline-exceeded utility with the
	// paper's non-preemptive engine; Preempt with map-task preemption.
	NoPreempt, Preempt float64
}

// PreemptionResult tests the paper's explanation of the Figure 7(a)
// "bump": "this is caused because the scheduler does not pre-empt tasks
// themselves. So, if a decision to allocate resources to a task has been
// made the slot is not available for allocation to the earlier deadline
// job which just arrived." If that explanation is right, enabling
// map-task preemption (an extension of this reproduction) must shrink
// the utility in the contended region.
type PreemptionResult struct {
	Rows        []PreemptionRow
	Repetitions int
}

// AblationPreemption runs the df = 1 testbed sweep with and without
// map-task preemption under MaxEDF.
func AblationPreemption(repetitions int, seed int64) (*PreemptionResult, error) {
	if repetitions < 1 {
		return nil, fmt.Errorf("experiments: preemption ablation needs >= 1 repetition")
	}
	pool, baselines, err := testbedJobPool(seed)
	if err != nil {
		return nil, err
	}
	// The (arrival rate, preempt on/off) grid runs concurrently: both
	// variants of a rate re-seed the same RNG, so they replay identical
	// workloads, and the pool templates are shared read-only.
	rates := []float64{10, 100, 1000}
	variants := []bool{false, true}
	p := plan.Begin(plan.Options{}, plan.Run{Replays: len(rates) * len(variants) * repetitions})
	utils := make([]float64, len(rates)*len(variants))
	err = p.End(p.Each(context.Background(), len(utils),
		func(i int) error {
			meanIA := rates[i/len(variants)]
			cfg := EngineConfig()
			cfg.PreemptMapTasks = variants[i%len(variants)]
			rng := rand.New(rand.NewSource(seed ^ int64(meanIA)))
			var sum float64
			for rep := 0; rep < repetitions; rep++ {
				perm := rng.Perm(len(pool))
				tr := &trace.Trace{Name: "preempt-ablation"}
				tjs := make([]float64, 0, len(pool))
				t := 0.0
				for _, pi := range perm {
					tr.Jobs = append(tr.Jobs, &trace.Job{Arrival: t, Template: pool[pi]})
					tjs = append(tjs, baselines[pi])
					t += rng.ExpFloat64() * meanIA
				}
				assignDeadlines(tr, tjs, 1, rng) // df = 1: the bump regime
				tr.Normalize()
				util, err := runUtility(p, cfg, tr, sched.MaxEDF{})
				if err != nil {
					return err
				}
				sum += util
			}
			utils[i] = sum / float64(repetitions)
			return nil
		}))
	if err != nil {
		return nil, err
	}
	out := &PreemptionResult{Repetitions: repetitions}
	for ri, meanIA := range rates {
		out.Rows = append(out.Rows, PreemptionRow{
			InterArrivalMean: meanIA,
			NoPreempt:        utils[ri*len(variants)],
			Preempt:          utils[ri*len(variants)+1],
		})
	}
	return out, nil
}

// Render writes the comparison table.
func (r *PreemptionResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "# Preemption ablation at df=1, MaxEDF (%d repetitions): does killing\n", r.Repetitions)
	fmt.Fprintf(w, "# later-deadline map tasks remove the Figure 7(a) bump?\n")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			f1(row.InterArrivalMean), f3(row.NoPreempt), f3(row.Preempt),
		})
	}
	return writeRows(w, "mean_interarrival_s\tno_preempt\tpreempt", rows)
}
