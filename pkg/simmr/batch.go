package simmr

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/plan"
	"simmr/internal/runs"
	"simmr/internal/sched"
)

// ReplaySpec is one unit of a ReplayBatchCfg: a trace replayed under a
// policy and engine configuration. The zero-value Config means
// DefaultReplayConfig (Config.Sink may be set on an otherwise-zero
// Config without losing the defaults); a nil Policy means FIFO. Traces
// may be shared between specs (and with the caller) — the engine
// treats them as read-only. Config.Sink must NOT be shared between
// specs: sinks are single-goroutine, one per engine (obs.Sink).
type ReplaySpec struct {
	// Name labels the spec in error messages; defaults to the trace name.
	Name   string
	Config ReplayConfig
	Trace  *Trace
	// Policy must be stateless if the same value is reused across specs
	// (all built-ins except DynamicPriority are); give each spec its own
	// instance otherwise.
	Policy Policy
}

// BatchConfig parameterizes ReplayBatchCfg beyond the specs themselves.
type BatchConfig struct {
	// Workers bounds concurrent replays: 0 means one worker per CPU, 1
	// forces the serial path. Results are in spec order regardless, and
	// each is its own spec's replay whichever specs shared one
	// (ReplayBatchCfg).
	Workers int
	// Progress, when set, receives bounded-rate (done, total) callbacks.
	Progress ProgressFunc
	// Telemetry, when set, records the batch into the sharded metrics
	// registry: per-spec engine events and duration histograms (one
	// lock-free sink shard per spec), per-replay wall time and
	// events/sec, and the engine pool's reuse hit rate.
	Telemetry *Telemetry
	// Runs, when set, registers the batch in the ops-plane run registry
	// (kind "batch") — see SweepConfig.Runs.
	Runs *RunRegistry
	// Flight, when Runs is set, attaches a flight recorder of this ring
	// size to every spec's engine (-1 selects the default; 0 disables) —
	// see SweepConfig.Flight.
	Flight int
	// Cache, when set, memoizes specs through the content-addressed
	// replay result cache — see SweepConfig.Cache for the semantics
	// (cached specs skip the engine and their sinks do not fire).
	Cache *Cache
}

// ReplayBatchCfg replays N independent simulations — any mix of traces,
// policies, and configurations — concurrently on a bounded worker pool.
// Results come back in spec order, identical to running each spec
// serially; the first failing spec's error (lowest index) is returned.
//
// Observed specs that miss the cache (every spec, without one) may
// share a replay. A spec is observed when its Config.Sink is set, or
// when the batch has Telemetry or flight recorders. Such specs of one
// *Trace whose policies have one fingerprint that engine.Answers
// accepts (not ArrivalAware, so not MinEDF; no PreemptMapTasks) and
// whose configs differ only in slot counts form a group, which replays
// once, at its largest cluster. Each other member
// follows that replay for as long as it is provably its own (DESIGN.md
// §5, "Capacity above the peak"): its sink, flight recorder and
// telemetry see the shared stream until the two replays could part. A
// member they never part from takes a copy of the shared Result, and
// its observers saw its whole stream; any other is replayed on its own,
// by whichever worker is free, with its observers muted for what they
// already saw. Either way every spec's observers see its own replay's
// stream once, its Result is its own replay's, the cache stores it under
// its own key, and telemetry and the run registry count it as a replay.
func ReplayBatchCfg(ctx context.Context, bcfg BatchConfig, specs []ReplaySpec) ([]*ReplayResult, error) {
	traces := make([]*Trace, len(specs))
	for i := range specs {
		if specs[i].Trace == nil || len(specs[i].Trace.Jobs) == 0 {
			return nil, fmt.Errorf("simmr: replay batch spec %d (%s): %w", i, specName(&specs[i]), ErrEmptyWorkload)
		}
		traces[i] = specs[i].Trace
	}
	p := plan.Begin(
		plan.Options{Workers: bcfg.Workers, Progress: bcfg.Progress, Telemetry: bcfg.Telemetry, Runs: bcfg.Runs, Flight: bcfg.Flight, Cache: bcfg.Cache},
		plan.Run{Kind: runs.KindBatch, Traces: traces, Replays: len(specs), Config: fmt.Sprintf("specs=%d", len(specs))})
	b := newBatch(p, specs)
	err := p.Each(ctx, len(specs), func(int) error { return b.next(ctx) })
	if b.err != nil {
		err = b.err // the lowest failing spec's
	}
	if err = p.End(err); err != nil {
		return nil, err
	}
	return b.results, nil
}

// batch hands a batch's work to its workers as units: first each
// spec's lookup, in spec order; then, once every lookup of a group is
// made, the group's misses as one unit; each follower a group's replay
// cuts (plan.Group), from the moment of the cut; and once a group has
// replayed, its late specs. Replays go before lookups. A spec that
// shares no replay takes plan.Replay's whole path in one unit. A
// worker's body (plan.Each) claims units until one finishes a spec, or
// until a spec some unit finished is owed a body: a group settles its
// lead and the followers it answered at once, so bodies and specs stay
// one to one.
type batch struct {
	p       *plan.Plan
	specs   []ReplaySpec
	cfgs    []engine.Config
	pols    []Policy
	groupOf []*group
	results []*ReplayResult
	pending []*plan.Pending // each missed spec's replay, once looked up
	late    []bool

	mu      sync.Mutex
	looked  int    // specs whose lookup a worker has claimed
	ready   []unit // replays to claim, in the order they became ready
	running int    // units being worked on
	owed    int    // specs finished with no body returned for them
	// changed wakes the waiting workers as a unit finishes or a replay
	// becomes ready.
	changed broadcast
	err     error // the failure at the lowest spec so far
	errAt   int
}

// group is the specs that may share a replay, and which of them missed.
// With a cache, a spec with the config of an earlier member is late
// instead: it is looked up once the group has replayed, and hits what
// the member stored, as it would in a serial batch.
type group struct {
	specs  []int
	late   []int
	left   int   // lookups not made yet
	missed []int // in spec order once left is 0
}

// unit is a group's misses (g), or one spec: its lookup, its cut
// replay, or — whole — its plan.Replay.
type unit struct {
	g     *group
	spec  int
	whole bool
}

// groupKey is what the members of a group share; cfg has no slot
// counts and no sink.
type groupKey struct {
	tr  *Trace
	fp  uint64
	cfg engine.Config
}

func newBatch(p *plan.Plan, specs []ReplaySpec) *batch {
	n := len(specs)
	b := &batch{p: p, specs: specs, cfgs: make([]engine.Config, n), pols: make([]Policy, n),
		groupOf: make([]*group, n), results: make([]*ReplayResult, n), pending: make([]*plan.Pending, n), late: make([]bool, n)}
	groups := map[groupKey]*group{}
	for i := range specs {
		spec := &specs[i]
		// A spec that only sets an observability sink still gets the
		// default cluster configuration.
		cfg := spec.Config
		cfg.Sink = nil
		if cfg == (ReplayConfig{}) {
			cfg = engine.DefaultConfig()
		}
		policy := spec.Policy
		if policy == nil {
			policy = sched.FIFO{}
		}
		b.cfgs[i], b.pols[i] = cfg, policy
		g := &group{specs: []int{i}, left: 1}
		// Only observed specs group: a bare one keeps plan.Replay's path.
		// engine.Answers on an empty Result of cfg for cfg holds exactly
		// when the policy and config admit an answer at all.
		observed := spec.Config.Sink != nil || p.Observing()
		if fp, ok := sched.FingerprintOf(policy); ok && observed && engine.Answers(&engine.Result{}, cfg, cfg, policy) {
			k := groupKey{tr: spec.Trace, fp: fp, cfg: cfg}
			k.cfg.MapSlots, k.cfg.ReduceSlots = 0, 0
			if shared, ok := groups[k]; ok {
				g = shared
				if p.Cache != nil && slices.ContainsFunc(g.specs, func(j int) bool { return b.cfgs[j] == cfg }) {
					g.late, b.late[i] = append(g.late, i), true
				} else {
					g.specs, g.left = append(g.specs, i), g.left+1
				}
			} else {
				groups[k] = g
			}
		}
		b.groupOf[i] = g
	}
	return b
}

// next is one worker body: it works units until it may return.
func (b *batch) next(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case b.owed > 0:
			b.owed--
			return nil
		}
		u, ok := b.claim()
		if !ok {
			if b.running == 0 {
				return b.err
			}
			b.changed.wait(ctx, &b.mu)
			continue
		}
		b.running++
		b.mu.Unlock()
		done := b.work(u)
		b.mu.Lock()
		b.running--
		b.owed += done
		b.changed.signal()
	}
}

// claim takes the first ready replay, or else the next lookup. Once a
// spec has failed, only replays of lower specs are claimed, so that the
// error returned is the lowest failing spec's whatever ran first. The
// caller holds b.mu.
func (b *batch) claim() (unit, bool) {
	before := func(i int) bool { return b.err == nil || i < b.errAt }
	for k, u := range b.ready {
		if before(u.spec) {
			b.ready = slices.Delete(b.ready, k, k+1)
			return u, true
		}
	}
	for b.looked < len(b.specs) {
		i := b.looked
		b.looked++
		switch g := b.groupOf[i]; {
		case b.late[i]:
		case len(g.specs) > 1 || len(g.late) > 0:
			return unit{spec: i}, true
		case before(i):
			return unit{spec: i, whole: true}, true
		}
	}
	return unit{}, false
}

// fail records spec i's failure.
func (b *batch) fail(i int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil || i < b.errAt {
		b.err, b.errAt = fmt.Errorf("simmr: replay batch spec %d (%s): %w", i, specName(&b.specs[i]), err), i
	}
}

// push queues u for any worker. The caller holds b.mu.
func (b *batch) push(u unit) {
	b.ready = append(b.ready, u)
	b.changed.signal()
}

// work does u and returns how many specs it finished.
func (b *batch) work(u unit) int {
	switch i := u.spec; {
	case u.g != nil:
		return b.replayGroup(u.g)
	case b.pending[i] != nil:
		return b.finish(i, b.pending[i].Run())
	case u.whole:
		_, err := b.p.Replay(b.cfgs[i], b.specs[i].Trace, b.pols[i], b.cell(i), b.fold(i))
		return b.finish(i, err)
	default:
		return b.lookup(i)
	}
}

// finish settles spec i's replay: one spec finished, or a failure.
func (b *batch) finish(i int, err error) int {
	if err != nil {
		b.fail(i, err)
		return 0
	}
	return 1
}

// lookup looks spec i up for its group; the last lookup of a group
// with misses readies them.
func (b *batch) lookup(i int) int {
	m := b.p.Lookup(b.cfgs[i], b.specs[i].Trace, b.pols[i], b.cell(i), b.fold(i))
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.groupOf[i]
	if m != nil {
		b.pending[i] = m
		g.missed = append(g.missed, i)
	}
	if g.left--; g.left == 0 {
		if len(g.missed) == 0 {
			b.replayed(g)
		} else {
			slices.Sort(g.missed)
			b.push(unit{g: g, spec: g.missed[0]})
		}
	}
	if m == nil {
		return 1
	}
	return 0
}

// replayGroup replays a group's misses: one alone as itself, more than
// one as a plan.Group led by the largest cluster (the most slots, then
// the most map slots, then the lowest spec). It returns the lead and
// the followers answered from its replay, and readies the cut ones.
func (b *batch) replayGroup(g *group) int {
	defer func() {
		b.mu.Lock()
		b.replayed(g)
		b.mu.Unlock()
	}()
	lead := g.missed[0]
	if len(g.missed) == 1 {
		return b.finish(lead, b.pending[lead].Run())
	}
	size := func(i int) [2]int {
		return [2]int{b.cfgs[i].MapSlots + b.cfgs[i].ReduceSlots, b.cfgs[i].MapSlots}
	}
	for _, i := range g.missed[1:] {
		if s, l := size(i), size(lead); s[0] > l[0] || s[0] == l[0] && s[1] > l[1] {
			lead = i
		}
	}
	var followers []int
	var replays []*plan.Pending
	for _, i := range g.missed {
		if i != lead {
			followers = append(followers, i)
			replays = append(replays, b.pending[i])
		}
	}
	var cut []int
	err := b.p.Group(b.pending[lead], replays, func(k int) {
		cut = append(cut, followers[k])
		b.mu.Lock()
		b.push(unit{spec: followers[k]})
		b.mu.Unlock()
	})
	if testHookGroup != nil {
		testHookGroup(lead, followers, cut)
	}
	if err != nil {
		b.fail(lead, err)
		return 0
	}
	return 1 + len(followers) - len(cut)
}

// replayed readies g's late specs. The caller holds b.mu.
func (b *batch) replayed(g *group) {
	for _, i := range g.late {
		b.push(unit{spec: i, whole: true})
	}
}

// testHookGroup, when set, sees each group replay: its lead, its
// followers and the ones it cut, by spec.
var testHookGroup func(lead int, followers, cut []int)

// cell is spec i's plan cell: labelled by the spec, observed by its
// sink, its Result the caller's to keep.
func (b *batch) cell(i int) plan.Cell {
	spec := &b.specs[i]
	return plan.Cell{Label: specName(spec), Keep: true, Sink: func() obs.Sink { return spec.Config.Sink }}
}

func (b *batch) fold(i int) func(*engine.Result) {
	return func(res *engine.Result) { b.results[i] = res }
}

func specName(s *ReplaySpec) string {
	if s.Name != "" {
		return s.Name
	}
	if s.Trace != nil && s.Trace.Name != "" {
		return s.Trace.Name
	}
	return "unnamed"
}
