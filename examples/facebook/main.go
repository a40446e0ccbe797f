// Facebook synthetic workload: generate a trace from the LogNormal
// task-duration model the paper fits to Zaharia et al.'s production
// data (§V-C), then ask a what-if question: how do four schedulers
// compare on makespan and mean completion time for the same workload?
//
//	go run ./examples/facebook
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"simmr/pkg/simmr"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// 80 jobs with 90 s mean inter-arrival: a busy production hour.
	tr, err := simmr.GenerateTrace(simmr.FacebookShape(), 80, 90, rng)
	if err != nil {
		log.Fatal(err)
	}
	maps, reduces := tr.TotalTasks()
	fmt.Printf("generated %d jobs: %d map tasks, %d reduce tasks, %.1f task-hours serial\n\n",
		len(tr.Jobs), maps, reduces, tr.SerialRuntime()/3600)

	policies := []simmr.Policy{
		simmr.NewFIFO(),
		simmr.NewFair(),
		simmr.NewCapacity([]float64{0.6, 0.3, 0.1}),
		simmr.NewMaxEDF(), // without deadlines this degrades to FIFO order
	}
	// One ReplayBatchCfg call replays all four policies concurrently on a
	// worker pool. Every spec shares the same trace: the engine treats
	// traces as read-only, so no clones are needed, and results come
	// back in spec order.
	specs := make([]simmr.ReplaySpec, len(policies))
	for i, p := range policies {
		specs[i] = simmr.ReplaySpec{Name: p.Name(), Trace: tr, Policy: p}
	}
	results, err := simmr.ReplayBatchCfg(context.Background(), simmr.BatchConfig{}, specs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("policy    makespan    mean-completion  p95-completion")
	for i, res := range results {
		mean, p95 := completionStats(res)
		fmt.Printf("%-9s %8.0f s  %13.0f s  %12.0f s\n", policies[i].Name(), res.Makespan, mean, p95)
	}
	fmt.Println("\nFair spreads slots across jobs, trading a little makespan for far")
	fmt.Println("better mean completion on this heavy-tailed workload.")
}

func completionStats(res *simmr.ReplayResult) (mean, p95 float64) {
	times := make([]float64, 0, len(res.Jobs))
	for _, j := range res.Jobs {
		times = append(times, j.CompletionTime())
	}
	for _, t := range times {
		mean += t
	}
	mean /= float64(len(times))
	// insertion sort: tiny n, avoids importing sort for the example
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j-1] > times[j]; j-- {
			times[j-1], times[j] = times[j], times[j-1]
		}
	}
	return mean, times[len(times)*95/100]
}
