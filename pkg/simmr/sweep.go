package simmr

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/plan"
	"simmr/internal/runs"
	"simmr/internal/sched"
)

// ErrEmptyWorkload is returned by CapacitySweep, ReplayBatchCfg and
// BranchSet when asked to simulate a workload with no jobs: every
// per-job statistic (mean completion, deadline misses) would be
// undefined.
var ErrEmptyWorkload = errors.New("simmr: empty workload")

// SweepPoint is one cell of a capacity-planning sweep: the replay
// outcome of the workload on a cluster with the given slot counts.
type SweepPoint struct {
	// Cell is the point's global grid index (map-slot major), stable
	// across sharded execution: shard outputs placed by it reassemble
	// the unsharded sweep's grid order.
	Cell                  int
	MapSlots, ReduceSlots int
	Makespan              float64
	MeanCompletion        float64
	MaxCompletion         float64
	DeadlinesMissed       int
}

// SweepConfig parameterizes CapacitySweep. Which cells replay, and which
// take another cell's replay, follows the one fan-out scheduler's rules
// (plan.Plan.Fan; DESIGN.md §7, "One fan-out scheduler").
type SweepConfig struct {
	// MapSlotCounts and ReduceSlotCounts are the grid axes. If
	// ReduceSlotCounts is empty (nil or zero-length), reduce slots track
	// map slots (a square sweep, the common what-if).
	MapSlotCounts    []int
	ReduceSlotCounts []int
	// Policy defaults to FIFO. The policy value is shared by every
	// concurrent cell, so it must be stateless (all built-in policies
	// except DynamicPriority are); stateful schedulers need PolicyFactory.
	Policy Policy
	// PolicyFactory, when set, builds a fresh policy per cell and takes
	// precedence over Policy. Required for stateful schedulers such as
	// DynamicPriority.
	PolicyFactory func() Policy
	// MinMapPercentCompleted defaults to 0.05.
	MinMapPercentCompleted float64
	// Workers bounds the number of cells replayed concurrently: 0 means
	// one worker per CPU, 1 forces the serial path. Results are in grid
	// order and identical regardless of the worker count; which cells
	// replay may vary with it.
	Workers int
	// SinkFactory, when set, builds one observability sink per grid
	// cell (called from the worker goroutine, so it must be safe for
	// concurrent calls); each cell's engine gets its own sink, keeping
	// sinks single-goroutine as obs.Sink requires.
	SinkFactory func(mapSlots, reduceSlots int) obs.Sink
	// Telemetry, when set, records the replays the sweep simulates into
	// the metrics registry: engine events and task-duration histograms,
	// per-replay wall time and events/sec, and the engine pool's reuse
	// hit rate. A cell another cell's replay answers adds nothing. Nil
	// costs nothing — the hot path is never touched.
	Telemetry *Telemetry
	// Runs, when set, registers the sweep in the ops-plane run registry
	// (kind "sweep", live cell progress, accumulated engine totals,
	// outcome) — pass DefaultRuns() to surface it on the debug server's
	// /runs endpoints. Nil costs nothing.
	Runs *RunRegistry
	// Flight, when Runs is set, attaches a flight recorder of this ring
	// size to every replay the sweep simulates (-1 selects the
	// 4096-event default):
	// deadline misses and errors capture post-mortems automatically,
	// and POST /runs/{id}/flight triggers live ones. 0 disables.
	Flight int
	// Cache, when set, memoizes cells through the content-addressed
	// replay result cache: each cell consults the cache before claiming
	// an engine from the pool, and stores its result after replaying.
	// Cached cells skip the engine entirely, so SinkFactory, Flight,
	// and per-replay telemetry do not fire for them; the run registry
	// counts them (Snapshot.Cached) and a fully cached sweep ends in
	// phase "cached". Policies without a stable fingerprint bypass the
	// cache. Nil disables caching.
	Cache *Cache
	// Shards/ShardIndex partition the grid for multi-process execution:
	// with Shards = N > 1, only cells whose global grid index ≡
	// ShardIndex (mod N) are replayed, and each process can share one
	// mmapped packed trace read-only. Shards 0 or 1 runs the whole
	// grid. Each point's Cell is its place in the whole grid.
	Shards     int
	ShardIndex int
}

// sweepCell is one (map slots, reduce slots) grid position.
type sweepCell struct{ m, r int }

// CapacitySweep replays a workload across a grid of cluster sizes — the
// §I provisioning question ("one has to evaluate whether additional
// resources are required") answered in simulation. Cells are replayed
// concurrently on a bounded worker pool against the shared, read-only
// trace (the engine never mutates it, so no per-cell clone is taken), or
// answered by another cell's replay (see SweepConfig); results come
// back in grid order (map-slot major) and are byte-identical to a serial
// sweep, and to an independent Replay of each cell.
func CapacitySweep(tr *Trace, cfg SweepConfig) ([]SweepPoint, error) {
	return CapacitySweepCtx(context.Background(), tr, cfg)
}

// CapacitySweepCtx is CapacitySweep with cancellation: canceling ctx
// stops the remaining cells and returns the context's error. When cells
// fail, the error is that of the first failing cell in grid order.
func CapacitySweepCtx(ctx context.Context, tr *Trace, cfg SweepConfig) ([]SweepPoint, error) {
	if len(cfg.MapSlotCounts) == 0 {
		return nil, fmt.Errorf("simmr: sweep needs at least one map-slot count")
	}
	if tr == nil || len(tr.Jobs) == 0 {
		return nil, fmt.Errorf("simmr: capacity sweep: %w", ErrEmptyWorkload)
	}
	// The run names the policy the cells run; a factory's once a cell
	// has called it.
	var policy Policy
	newPolicy := cfg.PolicyFactory
	if newPolicy == nil {
		if policy = cfg.Policy; policy == nil {
			policy = sched.FIFO{}
		}
		newPolicy = func() Policy { return policy }
	}
	slowstart := cfg.MinMapPercentCompleted
	if slowstart == 0 {
		slowstart = 0.05
	}

	// Flatten the grid up front: preallocates the output exactly and
	// avoids the old per-map-slot []int{m} allocation for square sweeps.
	square := len(cfg.ReduceSlotCounts) == 0
	rows := max(len(cfg.ReduceSlotCounts), 1)
	cells := make([]sweepCell, 0, len(cfg.MapSlotCounts)*rows)
	for _, m := range cfg.MapSlotCounts {
		if square {
			cells = append(cells, sweepCell{m, m})
			continue
		}
		for _, r := range cfg.ReduceSlotCounts {
			cells = append(cells, sweepCell{m, r})
		}
	}

	// Shard selection: this process replays only its residue class of
	// the grid. Global cell indices ride along in the output so shard
	// outputs reassemble in grid order across processes.
	sel := make([]int, 0, len(cells))
	switch {
	case cfg.Shards < 0:
		return nil, fmt.Errorf("simmr: sweep shards = %d", cfg.Shards)
	case cfg.Shards <= 1:
		if cfg.ShardIndex != 0 {
			return nil, fmt.Errorf("simmr: sweep shard index %d without sharding", cfg.ShardIndex)
		}
		for i := range cells {
			sel = append(sel, i)
		}
	default:
		if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.Shards {
			return nil, fmt.Errorf("simmr: sweep shard index %d outside [0,%d)", cfg.ShardIndex, cfg.Shards)
		}
		for i := cfg.ShardIndex; i < len(cells); i += cfg.Shards {
			sel = append(sel, i)
		}
		if len(sel) == 0 {
			return []SweepPoint{}, nil
		}
	}

	p := plan.Begin(
		plan.Options{Workers: cfg.Workers, Telemetry: cfg.Telemetry, Runs: cfg.Runs, Flight: cfg.Flight, Cache: cfg.Cache},
		plan.Run{Kind: runs.KindSweep, Policy: policy, Traces: []*Trace{tr}, Replays: len(sel),
			Config: fmt.Sprintf("grid=%dx%d shards=%d", len(cfg.MapSlotCounts), rows, max(cfg.Shards, 1))})
	points := make([]SweepPoint, len(sel))
	reqs := make([]plan.Request, len(sel))
	sinks := cfg.SinkFactory
	for i, cell := range sel {
		c := cells[cell]
		rq := &reqs[i]
		*rq = plan.Request{Cfg: engine.Config{MapSlots: c.m, ReduceSlots: c.r, MinMapPercentCompleted: slowstart}, Trace: tr}
		if sinks != nil {
			rq.Sink = func() obs.Sink { return sinks(c.m, c.r) }
		}
		if p.Recording() {
			rq.Label = fmt.Sprintf("cell-%dx%d", c.m, c.r)
		}
	}
	// Each cell keeps seven numbers of its replay, so it folds the outcome
	// while the plan's pooled engine still owns it.
	err := p.Fan(ctx, plan.Fanout{
		Requests:  reqs,
		NewPolicy: newPolicy,
		Fold:      func(i int, res *engine.Result) { points[i] = sweepPoint(sel[i], cells[sel[i]], res) },
		Took: func(i, from int) {
			c := cells[sel[i]]
			points[i] = points[from]
			points[i].Cell, points[i].MapSlots, points[i].ReduceSlots = sel[i], c.m, c.r
		},
		Wrap: func(i int, err error) error {
			c := cells[sel[i]]
			return fmt.Errorf("simmr: sweep at %d+%d slots: %w", c.m, c.r, err)
		},
	})
	if err = p.End(err); err != nil {
		return nil, err
	}
	return points, nil
}

// sweepPoint condenses one replay into its sweep cell.
func sweepPoint(cell int, c sweepCell, res *engine.Result) SweepPoint {
	p := SweepPoint{Cell: cell, MapSlots: c.m, ReduceSlots: c.r, Makespan: res.Makespan}
	for _, j := range res.Jobs {
		ct := j.CompletionTime()
		p.MeanCompletion += ct
		if ct > p.MaxCompletion {
			p.MaxCompletion = ct
		}
		if j.ExceededDeadline() {
			p.DeadlinesMissed++
		}
	}
	// Guarded: engine validation rejects empty traces, but a zero
	// denominator must never yield NaN points.
	if n := len(res.Jobs); n > 0 {
		p.MeanCompletion /= float64(n)
	}
	return p
}

// SmallestClusterMeeting returns the sweep point with the fewest slots
// (map plus reduce, then map; the first in grid order on a tie) whose
// makespan is at or under the goal, or nil.
func SmallestClusterMeeting(points []SweepPoint, makespanGoal float64) *SweepPoint {
	var best *SweepPoint
	for i := range points {
		p := &points[i]
		if p.Makespan > makespanGoal {
			continue
		}
		if best == nil || cmp.Or(cmp.Compare(p.MapSlots+p.ReduceSlots, best.MapSlots+best.ReduceSlots), cmp.Compare(p.MapSlots, best.MapSlots)) < 0 {
			best = p
		}
	}
	return best
}
