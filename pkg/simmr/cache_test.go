package simmr

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/plan"
	"simmr/internal/rcache"
	"simmr/internal/runs"
	"simmr/internal/sched"
)

// replayCached is one replay through the run plan with c as its cache,
// as the CLI's -cache-dir runs it: a hit returns the stored result
// without touching the engine (hit=true); a miss replays and stores. A
// nil cache, an unfingerprintable policy, or a corrupt entry all degrade
// to a plain replay, and on a hit cfg.Sink does not fire.
func replayCached(c *Cache, cfg ReplayConfig, tr *Trace, p Policy) (*ReplayResult, bool, error) {
	return plan.One(plan.Options{Cache: c}, runs.KindReplay, cfg, tr, p)
}

// cachePolicies enumerates every fingerprintable built-in — the seven
// reference schedulers, plus each passed through the deprecated Indexed
// identity, which must keep replaying and caching exactly like the bare
// value — as factories.
func cachePolicies() []struct {
	name string
	mk   func() Policy
} {
	base := []struct {
		name string
		mk   func() Policy
	}{
		{"fifo", NewFIFO},
		{"maxedf", NewMaxEDF},
		{"minedf-avg", NewMinEDF},
		{"minedf-low", func() Policy { return sched.MinEDF{Estimate: sched.EstimatorLow} }},
		{"minedf-up", func() Policy { return sched.MinEDF{Estimate: sched.EstimatorUp} }},
		{"fair", NewFair},
		{"capacity", func() Policy { return NewCapacity([]float64{0.6, 0.4}) }},
	}
	all := base
	for _, p := range base {
		mk := p.mk
		all = append(all, struct {
			name string
			mk   func() Policy
		}{"indexed-" + p.name, func() Policy { return Indexed(mk()) }})
	}
	return all
}

// The tentpole differential suite: for every fingerprintable built-in
// policy (including indexed variants), bare, under map preemption and
// observed by a task-span sink, a cache hit must reproduce the fresh
// replay byte-for-byte — DeepEqual on the decoded Result AND identical
// canonical encodings. The engine's determinism is what makes the cache
// sound; this test is the pin. Task spans are the sink's, not the
// result's: the observed replay stores and hits like the bare one, its
// miss feeds the sink one span per task, its hit replays no event.
func TestCacheDifferentialAllPolicies(t *testing.T) {
	tr, err := MultiTenantTrace(80, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	tasks := 0
	for _, j := range tr.Jobs {
		tasks += j.Template.NumMaps + j.Template.NumReduces
	}
	configs := []struct {
		name  string
		cfg   ReplayConfig
		spans bool
	}{
		{"base", ReplayConfig{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05}, false},
		{"spans", ReplayConfig{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05}, true},
		{"preempt", ReplayConfig{MapSlots: 6, ReduceSlots: 6, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}, false},
	}
	for _, pc := range cachePolicies() {
		for _, cc := range configs {
			t.Run(pc.name+"/"+cc.name, func(t *testing.T) {
				fresh, err := Replay(cc.cfg, tr, pc.mk())
				if err != nil {
					t.Fatal(err)
				}
				c := NewCache(CacheOptions{MemBytes: 32 << 20})
				// pass is one cached replay, under a sink of its own on the
				// spans row, and the task spans that sink was fed.
				pass := func() (res *ReplayResult, hit bool, spans int) {
					cfg, tl := cc.cfg, NewTimelineSink()
					if cc.spans {
						cfg.Sink = tl
					}
					res, hit, err := replayCached(c, cfg, tr, pc.mk())
					if err != nil {
						t.Fatal(err)
					}
					return res, hit, len(tl.Spans())
				}
				wantSpans := 0
				if cc.spans {
					wantSpans = tasks
				}
				got, hit, spans := pass()
				if hit || spans != wantSpans {
					t.Fatalf("first pass: hit=%v with %d task spans, want a miss and %d", hit, spans, wantSpans)
				}
				if !reflect.DeepEqual(got, fresh) {
					t.Fatal("first (stored) result differs from plain Replay")
				}
				got2, hit, spans := pass()
				if !hit || spans != 0 {
					t.Fatalf("second pass: hit=%v with %d task spans, want a hit that replays no event", hit, spans)
				}
				if !reflect.DeepEqual(got2, fresh) {
					t.Fatal("cached result differs from fresh replay")
				}
				// Byte-level identity: the canonical encodings must match,
				// not merely compare DeepEqual.
				key, ok := rcache.KeyFor(tr.ContentHash(), cc.cfg, pc.mk())
				if !ok {
					t.Fatal("built-in policy must fingerprint")
				}
				fb, err := rcache.Encode(key, fresh)
				if err != nil {
					t.Fatal(err)
				}
				cb, err := rcache.Encode(key, got2)
				if err != nil {
					t.Fatal(err)
				}
				if string(fb) != string(cb) {
					t.Fatal("cached and fresh results encode to different bytes")
				}
				st := c.Stats()
				if st.Hits != 1 || st.Misses != 1 {
					t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
				}
			})
		}
	}
}

// DynamicPriority is stateful and carries caller-supplied maps, so it
// has no stable fingerprint: every cached replay through it must bypass
// the cache entirely — no hit, no miss, no stored entry — while still
// returning a correct replay.
func TestCacheDynamicPriorityBypasses(t *testing.T) {
	tr, err := MultiTenantTrace(40, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ReplayConfig{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05}
	budgets := map[int]float64{0: 100, 1: 100}
	bids := map[int]float64{0: 2, 1: 1}
	c := NewCache(CacheOptions{})
	for pass := 0; pass < 2; pass++ {
		res, hit, err := replayCached(c, cfg, tr, NewDynamicPriority(budgets, bids))
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("pass %d: DynamicPriority must never hit the cache", pass)
		}
		if len(res.Jobs) != len(tr.Jobs) {
			t.Fatalf("pass %d: %d outcomes for %d jobs", pass, len(res.Jobs), len(tr.Jobs))
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.MemEntries != 0 {
		t.Fatalf("bypass must not touch the cache: %+v", st)
	}
}

// A sweep run twice against one cache: the second pass must be 100%
// hits, produce identical SweepPoints, count the cells in the run
// registry's Cached field, and end in the "cached" terminal phase.
func TestSweepCacheSecondPassAllHits(t *testing.T) {
	tr, err := MultiTenantTrace(60, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheOptions{})
	reg := NewRunRegistry(8)
	cfg := SweepConfig{
		MapSlotCounts: []int{4, 8, 16},
		Policy:        NewMinEDF(),
		Cache:         c,
		Runs:          reg,
	}
	first, err := CapacitySweep(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != uint64(len(first)) || st.Hits != 0 {
		t.Fatalf("cold sweep stats = %+v, want %d misses", st, len(first))
	}
	second, err := CapacitySweep(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("warm sweep points differ from cold sweep")
	}
	st = c.Stats()
	if st.Hits != uint64(len(first)) {
		t.Fatalf("warm sweep stats = %+v, want %d hits", st, len(first))
	}
	snap := reg.Latest().Snapshot()
	if snap.Cached != uint64(len(first)) {
		t.Fatalf("run snapshot cached = %d, want %d", snap.Cached, len(first))
	}
	if snap.Phase != "cached" {
		t.Fatalf("fully memoized sweep phase = %q, want cached", snap.Phase)
	}
}

// A batch mixing every fingerprintable policy, run twice against one
// cache: second pass 100% hits with spec-order results identical to the
// first, and the registry records the fully cached batch.
func TestBatchCacheSecondPassAllHits(t *testing.T) {
	tr, err := MultiTenantTrace(50, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	pols := cachePolicies()
	mkSpecs := func() []ReplaySpec {
		specs := make([]ReplaySpec, len(pols))
		for i, p := range pols {
			specs[i] = ReplaySpec{
				Name:   fmt.Sprintf("s%d-%s", i, p.name),
				Config: ReplayConfig{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05},
				Trace:  tr,
				Policy: p.mk(),
			}
		}
		return specs
	}
	c := NewCache(CacheOptions{})
	reg := NewRunRegistry(8)
	// Workers: 1 makes the hit/miss split deterministic: an indexed
	// policy shares its reference policy's fingerprint (they are pinned
	// byte-identical). Within the cold pass an indexed spec under a
	// policy no replay answers for (MinEDF's three estimators) replays
	// alone, after its base spec has stored the entry it hits; the other
	// four pairs each form a group whose members are all looked up before
	// any replays, so both miss.
	bcfg := BatchConfig{Workers: 1, Cache: c, Runs: reg}
	first, err := ReplayBatchCfg(t.Context(), bcfg, mkSpecs())
	if err != nil {
		t.Fatal(err)
	}
	second, err := ReplayBatchCfg(t.Context(), bcfg, mkSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("warm batch results differ from cold batch")
	}
	var alone uint64
	for _, p := range pols[:len(pols)/2] {
		if cfg := mkSpecs()[0].Config; !engine.Answers(&engine.Result{}, cfg, cfg, p.mk()) {
			alone++
		}
	}
	misses := 2*(uint64(len(pols)/2)-alone) + alone
	if st := c.Stats(); alone != 3 || st.Misses != misses || st.Hits != alone+uint64(len(pols)) {
		t.Fatalf("stats = %+v with %d pairs replayed alone, want 3 such pairs: %d misses / %d hits", st, alone, misses, alone+uint64(len(pols)))
	}
	snap := reg.Latest().Snapshot()
	if snap.Cached != uint64(len(pols)) || snap.Phase != "cached" {
		t.Fatalf("run snapshot = phase %q cached %d, want cached/%d", snap.Phase, snap.Cached, len(pols))
	}
}

// A session against one disk-backed cache: three batches repeat the same
// specs and each adds one-shot specs no other batch has. The memory tier
// ends up holding the repeating specs alone — the one-shot results stay
// on disk.
func TestBatchMemoryTierHoldsRepeatingSpecs(t *testing.T) {
	tr, err := MultiTenantTrace(40, rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheOptions{Dir: t.TempDir()})
	repeating := []Policy{NewFIFO(), NewMaxEDF(), NewMinEDF()}
	for call := 0; call < 3; call++ {
		var specs []ReplaySpec
		for _, p := range repeating {
			specs = append(specs, ReplaySpec{Config: ReplayConfig{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05}, Trace: tr, Policy: p})
		}
		for i := 0; i < 4; i++ {
			slots := 10 + 4*call + i
			specs = append(specs, ReplaySpec{Config: ReplayConfig{MapSlots: slots, ReduceSlots: slots, MinMapPercentCompleted: 0.05}, Trace: tr, Policy: NewFIFO()})
		}
		if _, err := ReplayBatchCfg(t.Context(), BatchConfig{Cache: c}, specs); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.MemEntries != len(repeating) {
		t.Fatalf("after three batches: %+v, want the %d repeating specs resident and nothing else", st, len(repeating))
	}
	if want := uint64(2 * len(repeating)); st.Hits != want || st.DiskHits != uint64(len(repeating)) {
		t.Fatalf("after three batches: %+v, want %d hits, the first %d from disk", st, want, len(repeating))
	}
}

// A batch keys every spec off a digest taken once per distinct trace;
// the keys must be the ones a lone cached replay of the same inputs
// computes, whichever trace a spec replays.
func TestBatchKeysEachDistinctTraceLikeReplayCached(t *testing.T) {
	a, err := MultiTenantTrace(30, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MultiTenantTrace(30, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ReplayConfig{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05}
	var specs []ReplaySpec
	for _, tr := range []*Trace{a, b, a, b} {
		specs = append(specs, ReplaySpec{Config: cfg, Trace: tr, Policy: NewMaxEDF()})
	}
	c := NewCache(CacheOptions{})
	got, err := ReplayBatchCfg(t.Context(), BatchConfig{Workers: 1, Cache: c}, specs)
	if err != nil {
		t.Fatal(err)
	}
	// The repeats group with the specs they repeat, and are looked up
	// before either replays.
	if st := c.Stats(); st.Misses != 4 || st.Hits != 0 || st.MemEntries != 2 {
		t.Fatalf("batch over two distinct traces: %+v, want 4 misses / 0 hits / 2 entries", st)
	}
	for i, tr := range []*Trace{a, b} {
		res, hit, err := replayCached(c, cfg, tr, NewMaxEDF())
		if err != nil {
			t.Fatal(err)
		}
		if !hit || !reflect.DeepEqual(res, got[i]) {
			t.Fatalf("trace %d: cached replay hit=%v on the entry the batch stored", i, hit)
		}
	}
}

// Disk-tier corruption at the public API level: flipping bytes in a
// stored .srrc entry must degrade a cached replay to a silent recompute —
// no error surfaces, the corrupt file is removed, and the re-stored
// entry hits again.
func TestCacheCorruptDiskEntryFallsBack(t *testing.T) {
	tr, err := MultiTenantTrace(40, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ReplayConfig{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05}
	dir := t.TempDir()
	fresh, _, err := replayCached(NewCache(CacheOptions{Dir: dir}), cfg, tr, NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "*.srrc"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one cache file, got %v (%v)", ents, err)
	}
	img, err := os.ReadFile(ents[0])
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xff
	if err := os.WriteFile(ents[0], img, 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh Cache on the same dir has an empty memory tier, so the
	// lookup must go to disk, detect the corruption, and recompute.
	c := NewCache(CacheOptions{Dir: dir})
	got, hit, err := replayCached(c, cfg, tr, NewFIFO())
	if err != nil || hit {
		t.Fatalf("corrupt entry: hit=%v err=%v, want silent miss", hit, err)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Fatal("recomputed result differs from original")
	}
	if _, hit, err = replayCached(c, cfg, tr, NewFIFO()); err != nil || !hit {
		t.Fatalf("re-stored entry: hit=%v err=%v, want hit", hit, err)
	}
}
