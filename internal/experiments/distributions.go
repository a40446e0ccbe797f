package experiments

import (
	"context"
	"fmt"
	"io"

	"simmr/internal/cluster"
	"simmr/internal/parallel"
	"simmr/internal/sched"
	"simmr/internal/stats"
	"simmr/internal/trace"
	"simmr/internal/workload"
)

// Figure3Result reproduces Figure 3: the CDFs of map, shuffle, and
// reduce task durations for WordCount under two different slot
// allocations (64×64 and 32×32), demonstrating that phase-duration
// distributions are invariant to the allocation — the premise that makes
// trace replay valid.
type Figure3Result struct {
	Allocations [2]string
	// CDFs indexed by [allocation][phase]; phases: map, shuffle, reduce.
	MapCDF     [2][]stats.Point
	ShuffleCDF [2][]stats.Point
	ReduceCDF  [2][]stats.Point
	// KS are two-sample Kolmogorov-Smirnov statistics between the two
	// allocations, per phase — small values mean "the same distribution".
	KSMap, KSShuffle, KSReduce float64
}

// Figure3 runs the experiment with the paper's two allocations. The two
// testbed runs are independent (separate seeds, separate clusters), so
// they execute concurrently on the worker pool.
func Figure3(seed int64) (*Figure3Result, error) {
	allocs := [2]int{64, 32}
	out := &Figure3Result{Allocations: [2]string{"64x64", "32x32"}}
	tpls, err := parallel.Map(context.Background(), 0, len(allocs),
		func(_ context.Context, i int) (*trace.Template, error) {
			cfg := TestbedConfig(seed + int64(i))
			cfg.Workers = allocs[i]
			cfg.MapSlotsPerNode = 1
			cfg.ReduceSlotsPerNode = 1
			res, err := runTestbedJob(cfg, cluster.Job{Spec: workload.WordCountExample()}, sched.FIFO{})
			if err != nil {
				return nil, err
			}
			return profilerFromResult(res).Jobs[0].Template, nil
		})
	if err != nil {
		return nil, err
	}
	for i, tpl := range tpls {
		const pts = 100
		out.MapCDF[i] = stats.NewECDF(tpl.MapDurations).Points(pts)
		out.ShuffleCDF[i] = stats.NewECDF(tpl.TypicalShuffle).Points(pts)
		out.ReduceCDF[i] = stats.NewECDF(tpl.ReduceDurations).Points(pts)
	}
	out.KSMap = stats.KolmogorovSmirnovTwoSample(tpls[0].MapDurations, tpls[1].MapDurations)
	out.KSShuffle = stats.KolmogorovSmirnovTwoSample(tpls[0].TypicalShuffle, tpls[1].TypicalShuffle)
	out.KSReduce = stats.KolmogorovSmirnovTwoSample(tpls[0].ReduceDurations, tpls[1].ReduceDurations)
	return out, nil
}

// Render renders three CDF blocks with both allocations side by side.
func (r *Figure3Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "# WordCount duration CDFs under %s vs %s allocations\n",
		r.Allocations[0], r.Allocations[1])
	fmt.Fprintf(w, "# two-sample KS: map=%.3f shuffle=%.3f reduce=%.3f (small = allocation-invariant)\n",
		r.KSMap, r.KSShuffle, r.KSReduce)
	blocks := []struct {
		name string
		cdfs [2][]stats.Point
	}{
		{"map", r.MapCDF}, {"shuffle", r.ShuffleCDF}, {"reduce", r.ReduceCDF},
	}
	for _, b := range blocks {
		fmt.Fprintf(w, "## %s task durations\n", b.name)
		for i, alloc := range r.Allocations {
			rows := make([][]string, 0, len(b.cdfs[i]))
			for _, p := range b.cdfs[i] {
				rows = append(rows, []string{alloc, f2(p.X), f3(p.Y)})
			}
			if err := writeRows(w, "alloc\tduration\tcdf", rows); err != nil {
				return err
			}
		}
	}
	return nil
}

// TableIRow is one row of Table I: per-application min/avg/max symmetric
// KL divergence across the 10 pairwise comparisons of 5 executions, for
// each phase.
type TableIRow struct {
	App                  string
	Map, Shuffle, Reduce stats.MinAvgMax
}

// TableIResult is the full table plus the cross-application comparison
// quoted in the text (map (7.34, 11.56, 13.25) etc. — ours differ in
// magnitude but must dominate the within-application values).
type TableIResult struct {
	Rows []TableIRow
	// CrossApp aggregates KL values between executions of *different*
	// applications.
	CrossMap, CrossShuffle, CrossReduce stats.MinAvgMax
	Executions                          int
}

// tableIKLBins is the histogram resolution for the Table I comparisons.
// Coarser than the package default because the smallest profiled jobs
// have only ~64 tasks per phase; finer bins would turn sampling noise
// into spurious divergence.
const tableIKLBins = 10

// TableI runs `executions` profiled runs of each application (the paper
// uses 5) and computes the divergence table.
func TableI(executions int, seed int64) (*TableIResult, error) {
	if executions < 2 {
		return nil, fmt.Errorf("experiments: TableI needs >= 2 executions")
	}
	apps := workload.Apps()
	type phaseSamples struct{ m, s, r [][]float64 }
	byApp := make([]phaseSamples, len(apps))

	// The (application, execution) grid of profiled testbed runs is
	// embarrassingly parallel: each cell seeds its own emulated cluster.
	// Flat cell index ai*executions+e keeps collection deterministic.
	tpls, err := parallel.Map(context.Background(), 0, len(apps)*executions,
		func(_ context.Context, i int) (*trace.Template, error) {
			ai, e := i/executions, i%executions
			cfg := TestbedConfig(seed + int64(ai*1000+e))
			tpl, _, err := profileSpec(cfg, apps[ai].Spec(0))
			return tpl, err
		})
	if err != nil {
		return nil, err
	}
	for i, tpl := range tpls {
		ai := i / executions
		byApp[ai].m = append(byApp[ai].m, tpl.MapDurations)
		byApp[ai].s = append(byApp[ai].s, tpl.TypicalShuffle)
		byApp[ai].r = append(byApp[ai].r, tpl.ReduceDurations)
	}

	out := &TableIResult{Executions: executions}
	for ai, app := range apps {
		out.Rows = append(out.Rows, TableIRow{
			App:     app.Name,
			Map:     stats.Collect(stats.PairwiseSymmetricKL(byApp[ai].m, tableIKLBins)),
			Shuffle: stats.Collect(stats.PairwiseSymmetricKL(byApp[ai].s, tableIKLBins)),
			Reduce:  stats.Collect(stats.PairwiseSymmetricKL(byApp[ai].r, tableIKLBins)),
		})
	}

	// Cross-application divergences: first execution of each app, all
	// unordered app pairs.
	var cm, cs, cr []float64
	for i := 0; i < len(apps); i++ {
		for j := i + 1; j < len(apps); j++ {
			cm = append(cm, stats.SampleSymmetricKL(byApp[i].m[0], byApp[j].m[0], tableIKLBins))
			cs = append(cs, stats.SampleSymmetricKL(byApp[i].s[0], byApp[j].s[0], tableIKLBins))
			cr = append(cr, stats.SampleSymmetricKL(byApp[i].r[0], byApp[j].r[0], tableIKLBins))
		}
	}
	out.CrossMap = stats.Collect(cm)
	out.CrossShuffle = stats.Collect(cs)
	out.CrossReduce = stats.Collect(cr)
	return out, nil
}

// Render renders the table in the paper's layout.
func (r *TableIResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "# Symmetric KL divergence over %d executions per application (10 pairwise comparisons at 5)\n", r.Executions)
	rows := make([][]string, 0, len(r.Rows)+1)
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.App,
			f2(row.Map.Min), f2(row.Map.Avg), f2(row.Map.Max),
			f2(row.Shuffle.Min), f2(row.Shuffle.Avg), f2(row.Shuffle.Max),
			f2(row.Reduce.Min), f2(row.Reduce.Avg), f2(row.Reduce.Max),
		})
	}
	rows = append(rows, []string{
		"CROSS-APP",
		f2(r.CrossMap.Min), f2(r.CrossMap.Avg), f2(r.CrossMap.Max),
		f2(r.CrossShuffle.Min), f2(r.CrossShuffle.Avg), f2(r.CrossShuffle.Max),
		f2(r.CrossReduce.Min), f2(r.CrossReduce.Avg), f2(r.CrossReduce.Max),
	})
	return writeRows(w,
		"app\tmap_min\tmap_avg\tmap_max\tsh_min\tsh_avg\tsh_max\tred_min\tred_avg\tred_max",
		rows)
}
