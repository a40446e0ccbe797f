package simmr

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/parallel"
	"simmr/internal/plan"
	"simmr/internal/runs"
	"simmr/internal/sched"
)

// ProgressFunc receives bounded-rate completion callbacks from the
// worker pool: done grid cells (or batch specs) out of total. See
// parallel.ProgressFunc for the delivery contract — calls are at least
// parallel.MinProgressInterval apart (final call excepted), may arrive
// concurrently from worker goroutines, and never serialize the pool.
type ProgressFunc = parallel.ProgressFunc

// ErrEmptyWorkload is returned by CapacitySweep and ReplayBatchCfg when
// asked to simulate a workload with no jobs: every per-job statistic
// (mean completion, deadline misses) would be undefined.
var ErrEmptyWorkload = errors.New("simmr: empty workload")

// SweepPoint is one cell of a capacity-planning sweep: the replay
// outcome of the workload on a cluster with the given slot counts.
type SweepPoint struct {
	// Cell is the point's global grid index (map-slot major), stable
	// across sharded execution — MergeSweepPoints reassembles shard
	// outputs in grid order by it.
	Cell                  int
	MapSlots, ReduceSlots int
	Makespan              float64
	MeanCompletion        float64
	MaxCompletion         float64
	DeadlinesMissed       int
}

// SweepConfig parameterizes CapacitySweep.
//
// A sweep replays each cell only when no replay it has already finished
// answers for it. A replay that left slots of a kind unused throughout
// its run gives the same result on any cluster with more slots of that
// kind than it ever held at once (engine.Answers, DESIGN.md §5), so past
// a workload's knee one replay serves a whole block of the grid: the
// sweep visits its cell with the most slots first, then the rest by
// ascending slot counts, and a cell answered that way takes that
// replay's point under its own Cell and slot counts. Workers claim cells
// in that order, skipping any that a running replay S is expected to
// answer: the cell has S's slot count of one kind and more of the other,
// and a finished replay with at least S's slots of both kinds held fewer
// of that other kind than S has. A worker with only such cells left
// waits for a replay to finish. An expectation only steers the work;
// every point still comes from its own replay or a finished one.
// Answered cells count as done for Progress and as cached in the run
// registry (Snapshot.Cached), and fire no sink, recorder, telemetry or
// cache lookup. Nothing is answered, and so nothing waits, when
// SinkFactory is set, since each sink must see its own cell's replay, or
// when the policy implements ArrivalAware (MinEDF), which is handed the
// slot totals.
//
// A cell that replays may still copy part of its replay. The cell
// visited first leaves a trail: the instants its cluster was empty with
// only arrivals ahead, and what it held between two of them. A cell
// claimed once that replay has finished copies every stretch between two
// such instants that it reaches with its own cluster empty and that the
// first replay took holding fewer slots of each kind than the cell has
// (DESIGN.md §5, "Stretches below the peak"). Only a bare sweep follows a
// trail — no SinkFactory, Telemetry or Flight — under a built-in policy
// other than MinEDF, so not under DynamicPriority or a policy of your own.
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
	// order and identical regardless of the worker count. Which cells
	// replay depends on which replays finish first, so it may vary with
	// the worker count, though the claim rule above keeps it close to a
	// serial sweep's.
	Workers int
	// Progress, when set, receives bounded-rate completion callbacks
	// (done cells, total cells) while the sweep runs.
	Progress ProgressFunc
	// SinkFactory, when set, builds one observability sink per grid
	// cell (called from the worker goroutine, so it must be safe for
	// concurrent calls); each cell's engine gets its own sink, keeping
	// sinks single-goroutine as obs.Sink requires.
	SinkFactory func(mapSlots, reduceSlots int) obs.Sink
	// Telemetry, when set, records the sweep into the sharded metrics
	// registry: per-cell engine events and task-duration histograms
	// (one lock-free sink shard per cell), per-replay wall time and
	// events/sec, and the engine pool's reuse hit rate. Nil costs
	// nothing — the hot path is never touched.
	Telemetry *Telemetry
	// Runs, when set, registers the sweep in the ops-plane run registry
	// (kind "sweep", live cell progress, accumulated engine totals,
	// outcome) — pass DefaultRuns() to surface it on the debug server's
	// /runs endpoints. Nil costs nothing.
	Runs *RunRegistry
	// Flight, when Runs is set, attaches a flight recorder of this ring
	// size to every cell's engine (-1 selects the 4096-event default):
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
	// grid. Reassemble shard outputs with MergeSweepPoints.
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
// answered by a replay already finished (see SweepConfig); results come
// back in grid order (map-slot major) and are byte-identical to a serial
// sweep, and to an independent Replay of each cell.
func CapacitySweep(tr *Trace, cfg SweepConfig) ([]SweepPoint, error) {
	return CapacitySweepCtx(context.Background(), tr, cfg)
}

// CapacitySweepCtx is CapacitySweep with cancellation: canceling ctx
// stops the remaining cells and returns the context's error. When cells
// fail, the error is that of the first failing cell in visit order.
func CapacitySweepCtx(ctx context.Context, tr *Trace, cfg SweepConfig) ([]SweepPoint, error) {
	if len(cfg.MapSlotCounts) == 0 {
		return nil, fmt.Errorf("simmr: sweep needs at least one map-slot count")
	}
	if tr == nil || len(tr.Jobs) == 0 {
		return nil, fmt.Errorf("simmr: capacity sweep: %w", ErrEmptyWorkload)
	}
	newPolicy := cfg.PolicyFactory
	if newPolicy == nil {
		policy := cfg.Policy
		if policy == nil {
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
	// the grid. Global cell indices ride along in the output so
	// MergeSweepPoints can reassemble grid order across processes.
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

	// Each cell keeps seven numbers of its replay, so it folds the outcome
	// while the plan's pooled engine still owns it.
	p := plan.Begin(
		plan.Options{Workers: cfg.Workers, Progress: cfg.Progress, Telemetry: cfg.Telemetry, Runs: cfg.Runs, Flight: cfg.Flight, Cache: cfg.Cache},
		plan.Run{Kind: runs.KindSweep, Policy: cfg.Policy, Traces: []*Trace{tr}, Replays: len(sel),
			Config: fmt.Sprintf("grid=%dx%d shards=%d", len(cfg.MapSlotCounts), rows, max(cfg.Shards, 1))})
	points := make([]SweepPoint, len(sel))
	order := visitOrder(cells, sel)
	cfgs := make([]engine.Config, len(order))
	for k, i := range order {
		c := cells[sel[i]]
		cfgs[k] = engine.Config{MapSlots: c.m, ReduceSlots: c.r, MinMapPercentCompleted: slowstart}
	}
	// A sink must see its own cell's replay, so with one no cell is reused.
	cl := &claims{cfgs: cfgs, reuse: cfg.SinkFactory == nil, claimed: make([]bool, len(cfgs))}
	err := p.Each(ctx, len(order), func(int) error {
		k, pt, answered, trail, err := cl.claim(ctx)
		if err != nil {
			return err
		}
		i := order[k]
		cell := sel[i]
		c := cells[cell]
		if answered {
			pt.Cell, pt.MapSlots, pt.ReduceSlots = cell, c.m, c.r
			points[i] = pt
			p.Reused(len(tr.Jobs))
			return nil
		}
		// The first cell visited leaves a trail; a cell claimed once its
		// replay has finished follows it.
		var lead *engine.Trail
		pc := plan.Cell{Follow: trail}
		if k == 0 {
			pc.Lead = func(t *engine.Trail) { lead = t }
		}
		if cfg.SinkFactory != nil {
			pc.Sink = func() obs.Sink { return cfg.SinkFactory(c.m, c.r) }
		}
		if p.Recording() {
			pc.Label = fmt.Sprintf("cell-%dx%d", c.m, c.r)
		}
		pol := newPolicy()
		var peaks engine.Result
		if _, err = p.Replay(cfgs[k], tr, pol, pc, func(res *engine.Result) {
			points[i] = sweepPoint(cell, c, res)
			peaks.PeakMapSlots, peaks.PeakReduceSlots = res.PeakMapSlots, res.PeakReduceSlots
		}); err != nil {
			err = fmt.Errorf("simmr: sweep at %d+%d slots: %w", c.m, c.r, err)
		}
		cl.finish(k, pol, &peaks, points[i], lead, err)
		return err
	})
	if cl.err != nil {
		err = cl.err // the first failing cell's in visit order
	}
	if err = p.End(err); err != nil {
		return nil, err
	}
	return points, nil
}

// visitOrder is the order a sweep visits its selected cells in, as
// indices into sel: the cell with the most slots first — it is the one
// likeliest to leave slots unused, and so to answer others — then the
// rest by ascending slot counts, map slots first, so that a row's
// smallest cell replays before the larger ones it may answer.
func visitOrder(cells []sweepCell, sel []int) []int {
	order := make([]int, len(sel))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ca, cb := cells[sel[a]], cells[sel[b]]
		return cmp.Or(cmp.Compare(ca.m, cb.m), cmp.Compare(ca.r, cb.r))
	})
	last := order[len(order)-1]
	copy(order[1:], order)
	order[0] = last
	return order
}

// claims hands a sweep's cells to its workers, one per claim, by the
// rule in SweepConfig's doc, and holds the finished replays that may
// answer other cells (engine.Answers). Cells are named by their
// position in visit order.
type claims struct {
	mu      sync.Mutex
	cfgs    []engine.Config // each position's config
	reuse   bool            // whether a finished replay may answer a cell
	claimed []bool
	running []int // positions whose replay is in flight
	kept    []answer
	trail   *engine.Trail // the first position's, once its replay has finished
	// changed wakes the waiting workers as the next replay finishes.
	changed broadcast
	err     error // the failure at the lowest position so far
	errAt   int
}

// answer is one finished replay as a later cell may take it: the config
// and policy it ran under, its peaks, and its point.
type answer struct {
	cfg   engine.Config
	pol   Policy
	peaks engine.Result
	point SweepPoint
}

// claim takes the first unclaimed position, in visit order, that a
// running replay is not expected to answer. If a finished replay
// answers it, answered is set and pt is that replay's point; otherwise
// the caller replays it, following trail when the first position's
// replay has left one, and reports to finish. When every unclaimed
// position is expected, claim waits for a replay to finish. It fails
// once a claimed cell has failed, or ctx is done.
func (c *claims) claim(ctx context.Context) (pos int, pt SweepPoint, answered bool, trail *engine.Trail, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.err != nil {
			return 0, SweepPoint{}, false, nil, c.err
		}
		for k, claimed := range c.claimed {
			if claimed {
				continue
			}
			if pt, ok := c.find(c.cfgs[k]); ok {
				c.claimed[k] = true
				return k, pt, true, nil, nil
			}
			if !c.expected(c.cfgs[k]) {
				c.claimed[k] = true
				c.running = append(c.running, k)
				return k, SweepPoint{}, false, c.trail, nil
			}
		}
		// Every unclaimed position names a running replay, whose finish
		// ends the wait.
		c.changed.wait(ctx, &c.mu)
		if err := ctx.Err(); err != nil {
			return 0, SweepPoint{}, false, nil, err
		}
	}
}

// find returns the point of a finished replay that answers for cfg.
func (c *claims) find(cfg engine.Config) (SweepPoint, bool) {
	for i := range c.kept {
		if k := &c.kept[i]; engine.Answers(&k.peaks, k.cfg, cfg, k.pol) {
			return k.point, true
		}
	}
	return SweepPoint{}, false
}

// expected reports whether a running replay S is expected to answer
// cfg, by the rule in SweepConfig's doc: S shares one slot count with
// cfg, and a finished replay f with at least S's slots left one of the
// other kind free at S's count.
func (c *claims) expected(cfg engine.Config) bool {
	for _, k := range c.running {
		s := c.cfgs[k]
		for i := range c.kept {
			f := &c.kept[i]
			if f.cfg.MapSlots < s.MapSlots || f.cfg.ReduceSlots < s.ReduceSlots {
				continue
			}
			if cfg.MapSlots == s.MapSlots && cfg.ReduceSlots > s.ReduceSlots && f.peaks.PeakReduceSlots < s.ReduceSlots ||
				cfg.ReduceSlots == s.ReduceSlots && cfg.MapSlots > s.MapSlots && f.peaks.PeakMapSlots < s.MapSlots {
				return true
			}
		}
	}
	return false
}

// finish settles the replay of position k under pol: a failure is
// recorded, a success that answers for a larger cluster is kept, and a
// trail it left is handed to later claims. Either way a waiting worker
// looks again.
func (c *claims) finish(k int, pol Policy, peaks *engine.Result, pt SweepPoint, trail *engine.Trail, err error) {
	c.mu.Lock()
	c.running = slices.DeleteFunc(c.running, func(r int) bool { return r == k })
	if trail != nil {
		c.trail = trail
	}
	switch cfg := c.cfgs[k]; {
	case err != nil:
		if c.err == nil || k < c.errAt {
			c.err, c.errAt = err, k
		}
	case c.reuse && answersLarger(peaks, cfg, pol):
		c.kept = append(c.kept, answer{cfg, pol, *peaks, pt})
	}
	c.changed.signal()
	c.mu.Unlock()
	if testHookSettled != nil {
		testHookSettled()
	}
}

// testHookSettled, when set, runs each time finish has settled a
// replay, before any worker can claim on the strength of it.
var testHookSettled func()

// broadcast wakes every worker waiting on it at once: a sweep's claims
// and a batch's units (batch.go). Its zero value is ready to use; the
// mutex the caller holds guards it.
type broadcast struct{ ch chan struct{} }

// wait releases mu until the next signal, or until ctx is done, and
// then takes it again.
func (b *broadcast) wait(ctx context.Context, mu *sync.Mutex) {
	if b.ch == nil {
		b.ch = make(chan struct{})
	}
	ch := b.ch
	mu.Unlock()
	select {
	case <-ch:
	case <-ctx.Done():
	}
	mu.Lock()
}

// signal wakes every waiting worker.
func (b *broadcast) signal() {
	if b.ch != nil {
		close(b.ch)
		b.ch = nil
	}
}

// answersLarger reports whether a replay of cfg under pol with the given
// peaks answers for a cluster with one more slot of some kind: whether
// it left a slot unused throughout, under a policy that may be answered
// for.
func answersLarger(peaks *engine.Result, cfg engine.Config, pol Policy) bool {
	wider, taller := cfg, cfg
	wider.MapSlots++
	taller.ReduceSlots++
	return engine.Answers(peaks, cfg, wider, pol) || engine.Answers(peaks, cfg, taller, pol)
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

// MergeSweepPoints reassembles the outputs of a sharded sweep into the
// single grid-order slice an unsharded CapacitySweep would have
// produced. It requires a complete, non-overlapping cover of the grid:
// duplicate or missing cells are an error (a shard ran twice, or one
// is still outstanding).
func MergeSweepPoints(shards ...[]SweepPoint) ([]SweepPoint, error) {
	n := 0
	for _, s := range shards {
		n += len(s)
	}
	if n == 0 {
		return nil, fmt.Errorf("simmr: merge of zero sweep points")
	}
	out := make([]SweepPoint, n)
	seen := make([]bool, n)
	for _, s := range shards {
		for _, p := range s {
			if p.Cell < 0 || p.Cell >= n {
				return nil, fmt.Errorf("simmr: sweep cell %d outside merged grid of %d", p.Cell, n)
			}
			if seen[p.Cell] {
				return nil, fmt.Errorf("simmr: duplicate sweep cell %d in merge", p.Cell)
			}
			seen[p.Cell] = true
			out[p.Cell] = p
		}
	}
	// seen is fully true here: n points, all in [0,n), no duplicates.
	return out, nil
}

// SmallestClusterMeeting returns the first sweep point (in grid order,
// i.e. smallest map-slot count first) whose makespan is at or under the
// goal, or nil.
func SmallestClusterMeeting(points []SweepPoint, makespanGoal float64) *SweepPoint {
	for i := range points {
		if points[i].Makespan <= makespanGoal {
			return &points[i]
		}
	}
	return nil
}
