package plan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/rcache"
	"simmr/internal/runs"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/telemetry"
	"simmr/internal/telemetry/telemetrytest"
	"simmr/internal/trace"
)

// planTrace is two 32-map jobs; the first one's deadline holds from two
// slots up and is blown on one.
func planTrace(mapDur float64) *trace.Trace {
	fill := func(n int, v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	tpl := &trace.Template{
		AppName: "p", NumMaps: 32, NumReduces: 4,
		MapDurations: fill(32, mapDur), FirstShuffle: fill(4, 2), TypicalShuffle: fill(4, 4), ReduceDurations: fill(4, 2),
	}
	tr := &trace.Trace{Name: "plan", Jobs: []*trace.Job{
		{Arrival: 0, Deadline: 300, Template: tpl},
		{Arrival: 10, Template: tpl.Clone()},
	}}
	tr.Normalize()
	return tr
}

// cellSpec is one replay of a contract scenario, by slot count.
type cellSpec struct {
	slots  int // < 1 fails the engine's config validation
	policy sched.Policy
	// reused cells are answered from another replay (settled as
	// Answered), as a capacity sweep answers cells above a peak.
	reused bool
}

// reused is a FIFO cell the caller answers from another cell's replay.
func reused(n int) cellSpec { return cellSpec{slots: n, policy: sched.FIFO{}, reused: true} }

func slots(ns ...int) []cellSpec {
	cells := make([]cellSpec, len(ns))
	for i, n := range ns {
		cells[i] = cellSpec{slots: n, policy: sched.FIFO{}}
	}
	return cells
}

// folded is what a cell keeps of its replay.
type folded struct {
	Makespan float64
	Events   uint64
	Jobs     int
}

// outcome is what a scenario's fan-out leaves behind.
type outcome struct {
	results   []folded // per cell, in cell order
	sinkCalls []int32  // per cell: times its sink constructor ran
	err       error
	snap      runs.Snapshot
	dumps     []*obs.FlightDump
}

// execute runs cells as one plan — the same Begin/Each/Replay/End every
// entry point writes — and collects what the contract speaks about.
func execute(ctx context.Context, o Options, tr *trace.Trace, cells []cellSpec) outcome {
	out := outcome{results: make([]folded, len(cells)), sinkCalls: make([]int32, len(cells))}
	p := Begin(o, Run{Kind: runs.KindSweep, Traces: []*trace.Trace{tr}, Replays: len(cells), Config: "contract"})
	out.err = p.End(p.Each(ctx, len(cells), func(i int) error {
		cfg := engine.Config{MapSlots: cells[i].slots, ReduceSlots: cells[i].slots, MinMapPercentCompleted: 0.05}
		if cells[i].reused {
			// Answered by a replay of its own config, which a straight
			// replay of the cell matches.
			r := pending{Request: Request{Cfg: cfg, Trace: tr, Policy: cells[i].policy}, p: p}
			r.from = &r
			r.settle(Provenance{How: Answered}, nil, nil)
			out.results[i] = folded{Jobs: len(tr.Jobs)}
			return nil
		}
		rq := Request{Cfg: cfg, Trace: tr, Policy: cells[i].policy, Label: "cell-" + strconv.Itoa(i), Sink: func() obs.Sink {
			atomic.AddInt32(&out.sinkCalls[i], 1)
			return &obs.RecordSink{}
		}}
		if _, err := p.Replay(rq, func(res *engine.Result) {
			out.results[i] = folded{res.Makespan, res.Events, len(res.Jobs)}
		}); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		return nil
	}))
	if o.Runs != nil {
		h := o.Runs.Latest()
		out.snap, out.dumps = h.Snapshot(), h.FlightDumps()
	}
	return out
}

// TestPlanContract is the executor's contract, checked once for every entry
// point: each scenario runs with and without telemetry and on 1 and 8
// workers, and states which cells simulate, what reaches the cache and
// the run registry, which post-mortems exist and how the plan ends. A
// reused cell (settled as Answered) is accounted as a hit is — done,
// cached, no sink, recorder or telemetry — without a cache lookup.
func TestPlanContract(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	dynamic := func() sched.Policy { return sched.NewDynamicPriority(nil, nil) }

	scenarios := []struct {
		name   string
		ctx    context.Context
		warm   []cellSpec // replayed into the cache before the scenario
		cells  []cellSpec
		cache  bool
		runs   bool
		flight int

		simulated []bool // per cell; nil: none
		stored    int    // entries the scenario itself adds to the cache
		partial   bool   // stops early: how far it got depends on Workers
		cached    uint64
		phase     string
		outcome   string
		errHas    string
		dumps     []string // "label:trigger", in order
	}{
		{name: "miss", cells: slots(2, 4, 8), cache: true, runs: true,
			simulated: []bool{true, true, true}, stored: 3, phase: "replay", outcome: runs.OutcomeOK},
		{name: "hit beside misses", warm: slots(4), cells: slots(2, 4, 8), cache: true, runs: true,
			simulated: []bool{true, false, true}, stored: 2, cached: 1, phase: "replay", outcome: runs.OutcomeOK},
		{name: "all hits end in phase cached", warm: slots(2, 4), cells: slots(2, 4), cache: true, runs: true, flight: 64,
			cached: 2, phase: "cached", outcome: runs.OutcomeOK},
		{name: "an unfingerprintable policy bypasses the cache", cells: []cellSpec{{slots: 2, policy: dynamic()}, {slots: 4, policy: dynamic()}}, cache: true, runs: true,
			simulated: []bool{true, true}, phase: "replay", outcome: runs.OutcomeOK},
		{name: "no cache, no registry", cells: slots(2, 4), flight: 64,
			simulated: []bool{true, true}},
		{name: "a recorder per simulated cell; a blown deadline dumps", cells: slots(1, 4), runs: true, flight: 64,
			simulated: []bool{true, true}, phase: "replay", outcome: runs.OutcomeOK, dumps: []string{"cell-0:deadline-miss"}},
		{name: "flight without size records nothing", cells: slots(1), runs: true,
			simulated: []bool{true}, phase: "replay", outcome: runs.OutcomeOK},
		{name: "failing cells: lowest index wins, error dumps", cells: slots(4, -1, -2), cache: true, runs: true, flight: 64,
			partial: true, phase: "replay", outcome: runs.OutcomeError, errHas: "cell 1:"},
		{name: "a reused cell is cached, builds nothing, records nothing", cells: append(append(slots(2), reused(1)), slots(8)...),
			cache: true, runs: true, flight: 64,
			simulated: []bool{true, false, true}, stored: 2, cached: 1, phase: "replay", outcome: runs.OutcomeOK},
		{name: "hits and reused cells end in phase cached", warm: slots(2), cells: append(slots(2), reused(4)),
			cache: true, runs: true, flight: 64,
			cached: 2, phase: "cached", outcome: runs.OutcomeOK},
		{name: "cancelled before it starts", ctx: canceled, cells: slots(2, 4), cache: true, runs: true, flight: 64,
			phase: "replay", outcome: runs.OutcomeCanceled, errHas: context.Canceled.Error()},
	}
	for _, sc := range scenarios {
		for _, withTel := range []bool{false, true} {
			var serial []folded
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/telemetry=%v/workers=%d", sc.name, withTel, workers), func(t *testing.T) {
					tr := planTrace(10)
					o := Options{Workers: workers, Flight: sc.flight}
					if sc.cache {
						o.Cache = rcache.New(rcache.Options{})
						if out := execute(context.Background(), Options{Cache: o.Cache}, tr, sc.warm); out.err != nil {
							t.Fatal(out.err)
						}
					}
					if sc.runs {
						o.Runs = runs.New(4)
					}
					if withTel {
						o.Telemetry = telemetry.NewSimMetrics()
					}
					before := o.Cache.Stats().MemEntries
					ctx := sc.ctx
					if ctx == nil {
						ctx = context.Background()
					}
					out := execute(ctx, o, tr, sc.cells)

					// How it ended.
					if sc.errHas == "" && out.err != nil {
						t.Fatal(out.err)
					}
					if sc.errHas != "" && (out.err == nil || !strings.Contains(out.err.Error(), sc.errHas)) {
						t.Fatalf("err = %v, want one mentioning %q", out.err, sc.errHas)
					}
					// The sink constructor runs iff the cell simulates.
					var wantEvents, wantJobs uint64
					for i := range sc.cells {
						sim := sc.simulated != nil && sc.simulated[i]
						if built := out.sinkCalls[i] == 1; !sc.partial && (built != sim || out.sinkCalls[i] > 1) {
							t.Errorf("cell %d: sink constructor ran %d times, simulated = %v", i, out.sinkCalls[i], sim)
						}
						if sc.errHas == "" {
							if out.results[i].Jobs != len(tr.Jobs) {
								t.Fatalf("cell %d folded %+v", i, out.results[i])
							}
							wantJobs += uint64(out.results[i].Jobs)
							if sim {
								wantEvents += out.results[i].Events
							}
						}
					}
					// Put iff keyed and succeeded.
					if got := o.Cache.Stats().MemEntries - before; !sc.partial && got != sc.stored {
						t.Errorf("cache grew by %d entries, want %d", got, sc.stored)
					}
					// Run registry: totals, phase, outcome, post-mortems.
					if sc.runs {
						if out.snap.Phase != sc.phase || out.snap.Outcome != sc.outcome || out.snap.Cached != sc.cached {
							t.Errorf("run ended phase %q outcome %q cached %d, want %q %q %d",
								out.snap.Phase, out.snap.Outcome, out.snap.Cached, sc.phase, sc.outcome, sc.cached)
						}
						if sc.errHas == "" && (out.snap.Done != len(sc.cells) || out.snap.Total != len(sc.cells)) {
							t.Errorf("progress %d/%d, want every cell done", out.snap.Done, out.snap.Total)
						}
						if out.snap.TraceHash != fmt.Sprintf("%016x", tr.ContentHash()) {
							t.Errorf("trace_hash %q is not the content digest", out.snap.TraceHash)
						}
						if sc.errHas == "" && (out.snap.Events != wantEvents || out.snap.Jobs != wantJobs) {
							t.Errorf("run totals events=%d jobs=%d, want %d and %d", out.snap.Events, out.snap.Jobs, wantEvents, wantJobs)
						}
						var got []string
						for _, d := range out.dumps {
							got = append(got, d.Label+":"+d.Trigger)
						}
						if sc.outcome == runs.OutcomeError && sc.flight != 0 {
							if len(got) == 0 || !strings.HasSuffix(got[len(got)-1], ":error") {
								t.Errorf("dumps %v: a failed replay must leave an error dump", got)
							}
						} else if strings.Join(got, " ") != strings.Join(sc.dumps, " ") {
							t.Errorf("dumps %v, want %v", got, sc.dumps)
						}
					}
					// Account: telemetry counts the simulated replays, not the hits.
					if withTel && !sc.partial {
						var sims float64
						for _, sim := range sc.simulated {
							if sim {
								sims++
							}
						}
						if got := telemetrytest.Scrape(t, o.Telemetry.Registry())["simmr_replays_total"]; got != sims {
							t.Errorf("simmr_replays_total = %v, want %v", got, sims)
						}
					}
					// Cell order, and identical on 1 and 8 workers.
					if sc.errHas == "" {
						if serial == nil {
							serial = out.results
						} else if string(mustJSON(serial)) != string(mustJSON(out.results)) {
							t.Errorf("Workers: 8 results %v differ from Workers: 1 %v", out.results, serial)
						}
					}
				})
			}
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// TestPlanTraceIdentity: the run's trace_hash is the very digest its
// cache keys were built from — an entry the plan stored is found under
// KeyFor(that digest) — and two traces differing in one interior map
// duration register different identities.
func TestPlanTraceIdentity(t *testing.T) {
	cfg := engine.Config{MapSlots: 4, ReduceSlots: 4, MinMapPercentCompleted: 0.05}
	reg, cache := runs.New(4), rcache.New(rcache.Options{})
	hashes := map[string]bool{}
	for _, tr := range []*trace.Trace{planTrace(10), planTrace(10)} {
		if len(hashes) == 1 {
			tr.Jobs[0].Template.MapDurations[7]++ // interior: neither first nor last
		}
		if _, hit, err := One(Options{Runs: reg, Cache: cache}, runs.KindReplay, cfg, tr, sched.MaxEDF{}); err != nil || hit {
			t.Fatalf("One: hit=%v err=%v", hit, err)
		}
		hash := reg.Latest().Snapshot().TraceHash
		digest, err := strconv.ParseUint(hash, 16, 64)
		if err != nil || len(hash) != 16 {
			t.Fatalf("trace_hash %q is not %%016x of a digest", hash)
		}
		key, _ := rcache.KeyFor(digest, cfg, sched.MaxEDF{})
		if _, ok := cache.Get(key); !ok {
			t.Fatalf("no cache entry under the key built from trace_hash %s", hash)
		}
		hashes[hash] = true
	}
	if len(hashes) != 2 {
		t.Fatalf("an interior duration edit kept trace_hash %v", hashes)
	}
}

// TestPlanSingleReplay covers the one-cell plan: the caller's sink fires
// on a miss and stays silent on a hit, live progress and totals come
// from the engine hook (jobs, not cells), and a registered single
// replay carries one recorder labelled by its kind.
func TestPlanSingleReplay(t *testing.T) {
	tr := planTrace(10)
	reg, cache := runs.New(4), rcache.New(rcache.Options{})
	cfg := engine.Config{MapSlots: 1, ReduceSlots: 1, MinMapPercentCompleted: 0.05}
	o := Options{Runs: reg, Flight: -1, Cache: cache, Telemetry: telemetry.NewSimMetrics()}

	sink := &obs.RecordSink{}
	cfg.Sink = sink
	res, hit, err := One(o, runs.KindAttr, cfg, tr, sched.FIFO{})
	if err != nil || hit || !sink.Ended {
		t.Fatalf("cold: hit=%v err=%v sink ended=%v", hit, err, sink.Ended)
	}
	h := reg.Latest()
	snap := h.Snapshot()
	if snap.Kind != runs.KindAttr || snap.Outcome != runs.OutcomeOK || snap.Policy != "FIFO" || snap.Config != "map_slots=1 reduce_slots=1" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Done != len(tr.Jobs) || snap.Total != len(tr.Jobs) || snap.Events != res.Events || snap.Jobs != uint64(len(tr.Jobs)) {
		t.Fatalf("hook totals: %d/%d jobs, %d events, %d jobs; result has %d events", snap.Done, snap.Total, snap.Events, snap.Jobs, res.Events)
	}
	if d := h.FlightDumps(); len(d) != 1 || d[0].Label != "attr" || d[0].Trigger != "deadline-miss" {
		t.Fatalf("dumps = %+v, want the one-slot replay's deadline miss", d)
	}

	again := &obs.RecordSink{}
	cfg.Sink = again
	warm, hit, err := One(o, runs.KindAttr, cfg, tr, sched.FIFO{})
	if err != nil || !hit || again.Ended || len(again.Events) != 0 {
		t.Fatalf("warm: hit=%v err=%v, sink saw %d events", hit, err, len(again.Events))
	}
	if warm.Makespan != res.Makespan || warm.Events != res.Events {
		t.Fatal("the hit differs from the replay it memoized")
	}
	if snap := reg.Latest().Snapshot(); snap.Phase != "cached" || snap.Cached != 1 {
		t.Fatalf("cached single replay: %+v", snap)
	}
	if got := telemetrytest.Scrape(t, o.Telemetry.Registry())["simmr_replays_total"]; got != 1 {
		t.Fatalf("after one replay and one hit: simmr_replays_total = %v", got)
	}

	// A failing single replay dumps.
	cfg.MapSlots = -1
	if _, _, err := One(o, runs.KindReplay, cfg, tr, sched.FIFO{}); err == nil {
		t.Fatal("invalid config replayed")
	}
	if d := reg.Latest().FlightDumps(); len(d) != 1 || d[0].Trigger != "error" {
		t.Fatalf("failed single replay dumps = %+v", d)
	}
}

// TestPlanTotals: Totals keeps no per-job outcome when nothing of the
// plan reads one — split over two workers or not, observed by telemetry
// or not — and its totals are One's; a cache, which stores the Result,
// and a flight recorder, which may dump a deadline miss from it, keep
// the outcomes.
func TestPlanTotals(t *testing.T) {
	s, err := synth.NewStream(synth.StreamConfig{
		Name: "totals", Jobs: 4096, MeanInterArrival: 60, TemplatePool: 32,
		DeadlineFraction: 0.5, DeadlineSlack: 900,
		Shapes: []synth.WeightedShape{{Shape: synth.MultiTenantShape(), Weight: 1}},
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	full, _, err := One(Options{Workers: 1}, runs.KindReplay, cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	var hows []How
	checker := Settled
	Settled = func(pv Provenance, simulated bool, rq Request, res *engine.Result, src Request) {
		hows = append(hows, pv.How)
		checker(pv, simulated, rq, res, src)
	}
	defer func() { Settled = checker }()
	for _, c := range []struct {
		name string
		o    Options
		how  How
		jobs bool
	}{
		{"unsplit", Options{Workers: 1}, Simulated, false},
		{"split", Options{Workers: 2}, Split, false},
		{"telemetry", Options{Workers: 2, Telemetry: telemetry.NewSimMetrics()}, Simulated, false},
		{"cached", Options{Workers: 2, Cache: rcache.New(rcache.Options{})}, Split, true},
		{"recorded", Options{Workers: 2, Runs: runs.New(4), Flight: -1}, Simulated, true},
	} {
		hows = hows[:0]
		res, hit, err := Totals(c.o, runs.KindReplay, cfg, tr, sched.FIFO{})
		if err != nil || hit {
			t.Fatalf("%s: hit=%v err=%v", c.name, hit, err)
		}
		if len(hows) != 1 || hows[0] != c.how {
			t.Errorf("%s: settled as %v, want %v", c.name, hows, c.how)
		}
		if got := res.Jobs != nil; got != c.jobs {
			t.Errorf("%s: Result keeps %d outcomes, want them kept: %v", c.name, len(res.Jobs), c.jobs)
		}
		if res.Events != full.Events || res.Makespan != full.Makespan ||
			res.PeakMapSlots != full.PeakMapSlots || res.PeakReduceSlots != full.PeakReduceSlots {
			t.Errorf("%s: totals %+v differ from One's", c.name, *res)
		}
	}
}

// branches is a Fan of n branches from the sealed prefix rq, each
// edited by edit.
func branches(rq Request, n int, edit func(*engine.Engine) error, fold func(i int, res *engine.Result)) Fanout {
	rqs := make([]Request, n)
	for i := range rqs {
		rqs[i] = rq
		rqs[i].Edit, rqs[i].Label = edit, "b"+strconv.Itoa(i)
	}
	return Fanout{Requests: rqs, Keep: true, Fold: fold}
}

// TestPlanBranchCells covers the arm variation: branch requests fork
// from the sealed prefix, are never keyed, count only their own suffix,
// and a failing prefix or edit finishes no replay.
func TestPlanBranchCells(t *testing.T) {
	tr := planTrace(10)
	cfg := engine.Config{MapSlots: 4, ReduceSlots: 4, MinMapPercentCompleted: 0.05}
	full, err := engine.Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewSimMetrics()
	reg := runs.New(4)
	o := Options{Workers: 2, Telemetry: tel, Runs: reg, Flight: 32, Cache: rcache.New(rcache.Options{})}
	var prefix uint64
	branchSet := func(cfg engine.Config, edit func(*engine.Engine) error) ([]uint64, error) {
		p := Begin(o, Run{Kind: runs.KindBranch, Traces: []*trace.Trace{tr}, Replays: 3})
		rq, err := p.Prefix(cfg, tr, sched.FIFO{}, 20)
		if err != nil {
			return nil, p.End(err)
		}
		prefix = rq.pre.events
		events := make([]uint64, 3)
		return events, p.End(p.Fan(context.Background(), branches(rq, 3, edit, func(i int, res *engine.Result) { events[i] = res.Events })))
	}

	events, err := branchSet(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Latest().Snapshot()
	if prefix < 20 || snap.Phase != "branches" || snap.Events != prefix+3*(full.Events-prefix) || snap.Jobs != 6 {
		t.Fatalf("branch run %+v after a %d-event prefix; a full replay has %d events", snap, prefix, full.Events)
	}
	for i, ev := range events {
		if ev != full.Events {
			t.Fatalf("unedited branch %d replayed %d events, the full replay %d", i, ev, full.Events)
		}
	}
	if st := o.Cache.Stats(); st.Hits+st.Misses != 0 || st.MemEntries != 0 {
		t.Fatalf("branches reached the cache: %+v", st)
	}

	bad := cfg
	bad.MapSlots = -1
	if _, err := branchSet(bad, nil); err == nil {
		t.Fatal("invalid prefix config replayed")
	}
	boom := errors.New("boom")
	if _, err := branchSet(cfg, func(*engine.Engine) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failing edit returned %v", err)
	}
	if d := reg.Latest().FlightDumps(); len(d) == 0 || d[len(d)-1].Trigger != "error" {
		t.Fatalf("failing edit left dumps %+v", d)
	}
	if got := telemetrytest.Scrape(t, tel.Registry())["simmr_replays_total"]; got != 3 {
		t.Fatalf("one clean set, one failed prefix, one failed edit: simmr_replays_total = %v, want 3", got)
	}
}

// TestBranchPutsBackFailedFork: a branch whose edit fails still returns
// its fork to the pool, so the next branch reuses it instead of building
// an engine. The plan draws from a pool of its own, observed, so that
// only its own forks can be reused; with a fork lost on every failure no
// branch would be.
func TestBranchPutsBackFailedFork(t *testing.T) {
	tr := planTrace(10)
	cfg := engine.Config{MapSlots: 4, ReduceSlots: 4, MinMapPercentCompleted: 0.05}
	var reused atomic.Int32
	p := Begin(Options{Workers: 1}, Run{Kind: runs.KindBranch, Traces: []*trace.Trace{tr}, Replays: 8})
	p.pool = (&engine.Pool{}).Observed(func(r bool) {
		if r {
			reused.Add(1)
		}
	})
	rq, err := p.Prefix(cfg, tr, sched.FIFO{}, 20)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for i := 0; i < 8; i++ {
		// One Fan a branch: a fan-out stops at its first failure.
		err := p.Fan(context.Background(), branches(rq, 1, func(*engine.Engine) error { return boom }, func(int, *engine.Result) {
			t.Fatal("a failed branch folded a result")
		}))
		if !errors.Is(err, boom) {
			t.Fatalf("branch %d: err = %v, want the edit's", i, err)
		}
	}
	p.End(boom)
	if reused.Load() == 0 {
		t.Fatal("no branch after a failed edit reused its fork")
	}
}
