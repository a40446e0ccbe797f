package rcache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/synth"
)

func testResult(t testing.TB, jobs int, cfg engine.Config, p sched.Policy) (*engine.Result, uint64) {
	t.Helper()
	tr, err := synth.ProductionTrace(jobs, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(cfg, tr, p)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr.ContentHash()
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	// 30 jobs end the cols section on an 8-byte boundary, 31 need the pad.
	for _, jobs := range []int{30, 31} {
		cfg := engine.DefaultConfig()
		res, h := testResult(t, jobs, cfg, sched.MaxEDF{})
		if res.PeakMapSlots == 0 || res.PeakReduceSlots == 0 {
			t.Fatalf("%d jobs: peaks %d+%d; the round trip must carry nonzero ones", jobs, res.PeakMapSlots, res.PeakReduceSlots)
		}
		k, ok := KeyFor(h, cfg, sched.MaxEDF{})
		if !ok {
			t.Fatal("MaxEDF must fingerprint")
		}
		img, err := Encode(k, res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(img, k)
		if err != nil {
			t.Fatalf("%d jobs: %v", jobs, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("%d jobs: decode != original", jobs)
		}
	}
}

// A hit's cost must not grow with an allocation per job: Decode makes
// the Result, its Jobs and one string all names are sliced from.
func TestDecodeAllocsIndependentOfJobCount(t *testing.T) {
	cfg := engine.DefaultConfig()
	res, h := testResult(t, 1000, cfg, sched.FIFO{})
	k, _ := KeyFor(h, cfg, sched.FIFO{})
	img, err := Encode(k, res)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Decode(img, k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("Decode of a 1000-job entry: %v allocations, want <= 4", allocs)
	}
}

// TestEntryV3Fixture pins the SRRC image: testdata/entry_v3.srrc is
// the version 3 image of the 31-job MaxEDF replay below (its cols
// section needs the pad), written by the column-at-a-time encoder that
// preceded the one-pass one. Encode must still write it byte for byte
// and Decode read it back.
func TestEntryV3Fixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "entry_v3.srrc"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	res, h := testResult(t, 31, cfg, sched.MaxEDF{})
	k, _ := KeyFor(h, cfg, sched.MaxEDF{})
	if 31*colsRecSize%8 == 0 {
		t.Fatal("31 jobs must leave the cols section to its pad")
	}
	img, err := Encode(k, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, fixture) {
		t.Fatalf("Encode wrote %d bytes that differ from the %d-byte fixture", len(img), len(fixture))
	}
	got, err := Decode(fixture, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("the fixture decodes to another Result")
	}
}

// TestHitIsTheCallersCopy: whatever a caller does to a hit — a job
// rewritten, a job appended, the makespan changed — or to the Result it
// Put, no later hit sees it, on either tier, from one goroutine or
// eight.
func TestHitIsTheCallersCopy(t *testing.T) {
	cfg := engine.DefaultConfig()
	res, h := testResult(t, 25, cfg, sched.FIFO{})
	k, _ := KeyFor(h, cfg, sched.FIFO{})
	want := copyResult(res)
	mutate := func(t *testing.T, c *Cache) {
		got, ok := c.Get(k)
		if !ok {
			t.Error("miss")
			return
		}
		got.Jobs[0].Finish, got.Jobs[0].Name = -1, "mutated"
		got.Jobs = append(got.Jobs, engine.JobOutcome{ID: 99})
		got.Makespan = -1
	}
	for _, tier := range []struct {
		name string
		opts func() Options
	}{
		{"memory", func() Options { return Options{} }},
		{"disk", func() Options { return Options{Dir: t.TempDir()} }},
	} {
		t.Run(tier.name, func(t *testing.T) {
			c := New(tier.opts())
			put := copyResult(res)
			c.Put(k, put)
			put.Jobs[1].Finish, put.Makespan = -2, -2
			for i := 0; i < 3; i++ {
				mutate(t, c)
			}
			if got, ok := c.Get(k); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("a hit after three mutated ones: hit %v, equal %v", ok, ok && reflect.DeepEqual(got, want))
			}
		})
		t.Run(tier.name+"-concurrent", func(t *testing.T) {
			c := New(tier.opts())
			c.Put(k, res)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						mutate(t, c)
					}
				}()
			}
			wg.Wait()
			if got, ok := c.Get(k); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("a hit after 160 concurrently mutated ones: hit %v", ok)
			}
		})
	}
}

// copyResult is a deep copy of res, the names shared.
func copyResult(res *engine.Result) *engine.Result {
	cp := *res
	cp.Jobs = append([]engine.JobOutcome(nil), res.Jobs...)
	return &cp
}

// residentCost is what the memory tier charges for res.
func residentCost(t *testing.T, res *engine.Result) int64 {
	t.Helper()
	r, err := newResident(Key{}, res)
	if err != nil {
		t.Fatal(err)
	}
	return r.cost()
}

// A memory hit is one copy: the Result and its Jobs array, whatever the
// job count.
func TestHitAllocsIndependentOfJobCount(t *testing.T) {
	for _, jobs := range []int{1000, 10000} {
		res := &engine.Result{Jobs: make([]engine.JobOutcome, jobs), Events: 7}
		for i := range res.Jobs {
			res.Jobs[i] = engine.JobOutcome{ID: i, Name: "job", Finish: float64(i)}
		}
		c := New(Options{})
		k := Key{Hi: uint64(jobs)}
		c.Put(k, res)
		allocs := testing.AllocsPerRun(10, func() {
			if _, ok := c.Get(k); !ok {
				t.Fatal("miss")
			}
		})
		if allocs > 2 {
			t.Fatalf("a memory hit on a %d-job entry: %v allocations, want <= 2", jobs, allocs)
		}
	}
}

// A policy that is nil or declines to fingerprint has no key: its
// replays bypass the cache.
func TestKeyForBypasses(t *testing.T) {
	cfg := engine.DefaultConfig()
	if _, ok := KeyFor(1, cfg, sched.MaxEDF{}); !ok {
		t.Fatal("a built-in stateless policy must key")
	}
	if _, ok := KeyFor(1, cfg, sched.NewDynamicPriority(nil, nil)); ok {
		t.Fatal("an unfingerprintable policy must not key")
	}
	if _, ok := KeyFor(1, cfg, nil); ok {
		t.Fatal("a nil policy must not key")
	}
}

func TestKeyDiscriminates(t *testing.T) {
	base := engine.DefaultConfig()
	k0, _ := KeyFor(1, base, sched.FIFO{})
	variants := []struct {
		name string
		hash uint64
		cfg  func(engine.Config) engine.Config
		p    sched.Policy
	}{
		{"trace", 2, nil, sched.FIFO{}},
		{"mapslots", 1, func(c engine.Config) engine.Config { c.MapSlots = 32; return c }, sched.FIFO{}},
		{"redslots", 1, func(c engine.Config) engine.Config { c.ReduceSlots = 32; return c }, sched.FIFO{}},
		{"slowstart", 1, func(c engine.Config) engine.Config { c.MinMapPercentCompleted = 0.5; return c }, sched.FIFO{}},
		{"noshuffle", 1, func(c engine.Config) engine.Config { c.NoShuffleModel = true; return c }, sched.FIFO{}},
		{"nofirst", 1, func(c engine.Config) engine.Config { c.NoFirstShuffleSpecialCase = true; return c }, sched.FIFO{}},
		{"preempt", 1, func(c engine.Config) engine.Config { c.PreemptMapTasks = true; return c }, sched.FIFO{}},
		{"policy", 1, nil, sched.MaxEDF{}},
	}
	keys := map[Key]string{k0: "base"}
	for _, v := range variants {
		cfg := base
		if v.cfg != nil {
			cfg = v.cfg(base)
		}
		k, ok := KeyFor(v.hash, cfg, v.p)
		if !ok {
			t.Fatalf("%s: no fingerprint", v.name)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("%s collides with %s", v.name, prev)
		}
		keys[k] = v.name
	}

	// Sink must NOT affect the key: it observes, it cannot change outcomes.
	withSink := base
	withSink.Sink = nopSink{}
	k1, _ := KeyFor(1, withSink, sched.FIFO{})
	if k1 != k0 {
		t.Error("Sink changed the cache key; it must be excluded")
	}

	// Unfingerprintable policies must refuse a key.
	if _, ok := KeyFor(1, base, &sched.DynamicPriority{}); ok {
		t.Error("DynamicPriority must not produce a cache key")
	}
}

type nopSink struct{}

func (nopSink) Event(obs.Event)     {}
func (nopSink) RunEnd(obs.Counters) {}

// TestGoldenKey pins the exact key bits for fixed inputs — the
// key-material analogue of the policy fingerprint golden table in
// sched/fingerprint_test.go. The key folds keyVersion (entry encoding),
// engine.SemanticsVersion (simulation behavior), the trace digest, the
// Config encoding, and the policy fingerprint; a change to ANY of them
// moves these values. That is the point: silently changed keys orphan
// every persistent cache entry, and an engine behavior change WITHOUT
// a SemanticsVersion bump would keep serving stale pre-change results
// from an existing -cache-dir. If this test fails, decide which lever
// you pulled — bump engine.SemanticsVersion for behavior changes,
// keyVersion for encoding/material changes — then update the golden.
func TestGoldenKey(t *testing.T) {
	if v := engine.SemanticsVersion; v != 1 {
		t.Logf("engine.SemanticsVersion = %d; goldens below were minted at version 1", v)
	}
	base := engine.DefaultConfig()
	preempt := base
	preempt.PreemptMapTasks = true
	golden := []struct {
		name   string
		digest uint64
		cfg    engine.Config
		p      sched.Policy
		want   Key
	}{
		{"fifo-base", 0xfeedbeefcafe0001, base, sched.FIFO{},
			Key{Hi: 0x63ee9b9186cae4f3, Lo: 0x92886beb41a2c896}},
		{"maxedf-preempt", 0xfeedbeefcafe0002, preempt, sched.MaxEDF{},
			Key{Hi: 0x5bc71bd8c586d0ab, Lo: 0x877bc4db63385006}},
	}
	for _, g := range golden {
		k, ok := KeyFor(g.digest, g.cfg, g.p)
		if !ok {
			t.Fatalf("%s: no fingerprint", g.name)
		}
		if k != g.want {
			t.Errorf("%s: key %s, golden %s — key material changed; bump keyVersion or engine.SemanticsVersion consciously, then re-mint",
				g.name, k, g.want)
		}
	}
}

// TestStaleEntryVersionIsSoftMiss: an entry written by a binary with
// another entryVersion — testdata/entry_v1.srrc and entry_v2.srrc are
// well-formed version 1 and 2 images of a two-job result, under the key
// they were addressed by — is an ordinary miss: counted, no error, never
// promoted into the memory tier, and replaced by the next Put, after
// which the directory still holds one entry.
func TestStaleEntryVersionIsSoftMiss(t *testing.T) {
	for _, name := range []string{"entry_v1.srrc", "entry_v2.srrc"} {
		t.Run(name, func(t *testing.T) { staleEntryIsSoftMiss(t, name) })
	}
}

func staleEntryIsSoftMiss(t *testing.T, fixture string) {
	stale, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(stale[4:6]); v == entryVersion {
		t.Fatalf("%s is a current (version %d) image", fixture, v)
	}
	k := Key{Hi: 3, Lo: 9}
	res := &engine.Result{
		Jobs: []engine.JobOutcome{
			{ID: 0, Name: "a", Arrival: 0, Finish: 10, Deadline: 12, MapStageEnd: 6, Events: 15},
			{ID: 1, Name: "bb", Arrival: 1, Finish: 20, MapStageEnd: 9, Events: 11},
		},
		Events:          26,
		Makespan:        20,
		PeakMapSlots:    3,
		PeakReduceSlots: 1,
	}
	dir := t.TempDir()
	path := filepath.Join(dir, k.String()+diskExt)
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Options{Dir: dir})
	if n, _, err := c.DiskInfo(); err != nil || n != 1 {
		t.Fatalf("DiskInfo counts %d entries (err %v) with the stale image in place, want 1", n, err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("a stale image was served as a hit")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 || st.MemEntries != 0 {
		t.Fatalf("a stale image must count as one miss and stay out of memory: %+v", st)
	}
	c.Put(k, res)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(img[4:6]); v != entryVersion {
		t.Fatalf("Put left a version %d image on disk, want %d", v, entryVersion)
	}
	got, ok := New(Options{Dir: dir}).Get(k)
	if !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("rewritten entry: hit %v, result %+v", ok, got)
	}
	if n, _, err := c.DiskInfo(); err != nil || n != 1 {
		t.Fatalf("DiskInfo counts %d entries (err %v) after the rewrite, want 1", n, err)
	}
}

func TestMemoryTierLRU(t *testing.T) {
	// Budget small enough that only a handful of entries fit.
	cfg := engine.DefaultConfig()
	res, h := testResult(t, 20, cfg, sched.FIFO{})
	perEntry := residentCost(t, res)

	const resident = 32
	c := New(Options{MemBytes: perEntry * resident})
	var keys []Key
	for i := 0; i < resident*4; i++ {
		k, _ := KeyFor(h+uint64(i), cfg, sched.FIFO{})
		c.Put(k, res)
		keys = append(keys, k)
	}
	st := c.Stats()
	if st.Evictions != resident*3 || st.MemEntries != resident {
		t.Fatalf("%d same-size puts under a budget of %d: stats %+v", len(keys), resident, st)
	}
	if st.MemBytes > perEntry*resident {
		t.Fatalf("budget exceeded: %d resident > %d", st.MemBytes, perEntry*resident)
	}
	// Exactly the most recent insertions are resident; evicted keys miss.
	for i, k := range keys {
		if _, ok := c.Get(k); ok != (i >= len(keys)-resident) {
			t.Fatalf("entry %d of %d: hit = %v with room for the last %d", i, len(keys), ok, resident)
		}
	}

	// The budget is the whole tier's, whatever the keys' bits: a batch's
	// worth of large entries (16 of ~1.3 MB, a 27 000-job result each)
	// under the default 64 MiB all stay resident. With a disk tier Put
	// writes the disk alone, so round 1 reads each entry from disk once
	// and promotes it; rounds 2 and 3 never read the disk.
	big := &engine.Result{Jobs: make([]engine.JobOutcome, 27000)}
	if bigImg, _ := Encode(Key{}, big); len(bigImg) < 1<<20 || len(bigImg) > 2<<20 {
		t.Fatalf("entries are %d bytes each; the case is about ~1.3 MB ones", len(bigImg))
	}
	tiered := New(Options{Dir: t.TempDir()})
	for i := 0; i < 16; i++ {
		tiered.Put(Key{Hi: uint64(i)}, big)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 16; i++ {
			if _, ok := tiered.Get(Key{Hi: uint64(i)}); !ok {
				t.Fatalf("round %d: entry %d missing from both tiers", round, i)
			}
		}
		if st := tiered.Stats(); st.DiskHits != 16 || st.MemEntries != 16 || st.Evictions != 0 || st.MemBytes > DefaultMemBytes {
			t.Fatalf("round %d of 16 entries in rotation under the default budget: %+v, want 16 disk hits, all resident", round, st)
		}
	}
}

// TestOneShotPutsStayOnDisk: with a disk tier, results written once and
// never read back do not reach the memory tier, so they cannot evict
// the entries a session does read back.
func TestOneShotPutsStayOnDisk(t *testing.T) {
	big := &engine.Result{Jobs: make([]engine.JobOutcome, 20000)}
	if img, _ := Encode(Key{}, big); len(img) < 1<<20*9/10 || len(img) > 2<<20 {
		t.Fatalf("entries are %d bytes each; the case is about ~1 MB ones", len(img))
	}
	c := New(Options{Dir: t.TempDir()})
	readBack := func() {
		t.Helper()
		for i := 0; i < 12; i++ {
			if _, ok := c.Get(Key{Hi: uint64(i)}); !ok {
				t.Fatalf("entry %d missing", i)
			}
		}
	}
	for i := 0; i < 12; i++ {
		c.Put(Key{Hi: uint64(i)}, big)
	}
	readBack()
	// Twice the default budget in one-shot results.
	for i := 0; i < 128; i++ {
		c.Put(Key{Hi: uint64(i), Lo: 1}, big)
	}
	st := c.Stats()
	if st.MemEntries != 12 || st.Evictions != 0 || st.DiskHits != 12 {
		t.Fatalf("12 entries read back, then 128 one-shot puts: %+v, want the 12 resident and no eviction", st)
	}
	readBack()
	if got := c.Stats(); got.DiskHits != st.DiskHits {
		t.Fatalf("a round over the read-back entries read the disk: %+v", got)
	}
}

// TestPutFallsBackToMemoryWhenDiskFails: a disk write that fails —
// here the directory replaced by a regular file, which fails even as
// root — keeps the entry in memory, so a broken disk never loses the
// in-process memoization.
func TestPutFallsBackToMemoryWhenDiskFails(t *testing.T) {
	cfg := engine.DefaultConfig()
	res, h := testResult(t, 25, cfg, sched.FIFO{})
	k, _ := KeyFor(h, cfg, sched.FIFO{})
	dir := filepath.Join(t.TempDir(), "cache")
	c := New(Options{Dir: dir})
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.Put(k, res)
	got, ok := c.Get(k)
	if !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("Put on a failed disk: hit %v, want the result back from memory", ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.DiskHits != 0 || st.MemEntries != 1 {
		t.Fatalf("want one memory hit: %+v", st)
	}
}

// Overwriting a resident entry with a larger payload must run the same
// eviction loop as a fresh insert: without it a grown entry leaves the
// tier over its byte budget until some unrelated insert cleans up.
func TestOverwriteGrowthEvicts(t *testing.T) {
	cfg := engine.DefaultConfig()
	small, _ := testResult(t, 5, cfg, sched.FIFO{})
	large, h := testResult(t, 60, cfg, sched.FIFO{})
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = Key{Hi: uint64(i), Lo: h}
	}
	perSmall, perLarge := residentCost(t, small), residentCost(t, large)

	// Budget: the large entry beside one small one — room for the four
	// small entries, not for three of them and the large.
	c := New(Options{MemBytes: perLarge + perSmall})
	for _, k := range keys {
		c.insert(k, small)
	}
	if st := c.Stats(); st.MemEntries != 4 || st.Evictions != 0 {
		t.Fatalf("four small entries do not fit beside each other: %+v", st)
	}
	// Overwrite the last-touched key with the much larger payload.
	c.insert(keys[3], large)
	st := c.Stats()
	if st.MemBytes > c.budget {
		t.Fatalf("%d bytes over budget %d after overwrite growth", st.MemBytes, c.budget)
	}
	if st.MemEntries == 4 {
		t.Fatal("overwrite growth evicted nothing, yet budget was exceeded before")
	}
	if st.Evictions == 0 {
		t.Fatalf("eviction counter not advanced: %+v", st)
	}
	// The overwritten entry itself must survive and serve the new bytes.
	if got, ok := c.Get(keys[3]); !ok || len(got.Jobs) != len(large.Jobs) {
		t.Fatalf("overwritten entry lost or stale (ok=%v)", ok)
	}
}

func TestDiskTierRoundtripAndPromotion(t *testing.T) {
	dir := t.TempDir()
	cfg := engine.DefaultConfig()
	res, h := testResult(t, 25, cfg, sched.Fair{})
	k, _ := KeyFor(h, cfg, sched.Fair{})

	c1 := New(Options{Dir: dir})
	c1.Put(k, res)
	if n, bytes, err := c1.DiskInfo(); err != nil || n != 1 || bytes == 0 {
		t.Fatalf("DiskInfo = %d entries %d bytes, err %v", n, bytes, err)
	}

	// A fresh cache over the same dir: memory cold, must hit from disk
	// and promote.
	c2 := New(Options{Dir: dir})
	got, ok := c2.Get(k)
	if !ok {
		t.Fatal("disk tier miss")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("disk hit differs from original")
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.MemEntries != 1 {
		t.Fatalf("expected disk hit + promotion, stats %+v", st)
	}
	// Second Get serves from memory.
	if _, ok := c2.Get(k); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Fatalf("promotion not serving from memory: %+v", st)
	}

	if err := c2.Clear(); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := c2.DiskInfo(); n != 0 {
		t.Fatalf("Clear left %d disk entries", n)
	}
	if _, ok := c2.Get(k); ok {
		t.Fatal("entry survived Clear")
	}
}

// A writer killed between write and rename leaves its temp file behind;
// Clear removes it, and nothing in the directory that the cache did not
// name.
func TestClearRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	c := New(Options{Dir: dir})
	k := Key{Hi: 0xfeed, Lo: 0xbeef}
	// Named the way trace.WriteFileAtomic names it, then abandoned.
	f, err := os.CreateTemp(dir, filepath.Base(c.entryPath(k))+".*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	foreign := []string{"notes.tmp", "results.srrc.1.tmp", k.String() + diskExt + ".bak"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(f.Name()); err == nil {
		t.Errorf("Clear left the interrupted writer's %s", filepath.Base(f.Name()))
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("Clear removed the foreign %s", name)
		}
	}
}

// TestCorruptEntryFallsBack pins the acceptance bar: flipped bytes,
// truncation, or garbage on either tier is a silent miss, never an
// error or a wrong result.
func TestCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := engine.DefaultConfig()
	res, h := testResult(t, 25, cfg, sched.MinEDF{})
	k, _ := KeyFor(h, cfg, sched.MinEDF{})

	fresh := func() *Cache {
		c := New(Options{Dir: dir})
		c.Put(k, res)
		return c
	}
	path := filepath.Join(dir, k.String()+diskExt)
	fresh() // seed the disk tier so there is an entry image to corrupt

	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func() []byte{
		"empty":           func() []byte { return nil },
		"garbage":         func() []byte { return []byte(strings.Repeat("x", 300)) },
		"truncated-half":  func() []byte { return append([]byte(nil), img[:len(img)/2]...) },
		"header-bit-flip": func() []byte { m := append([]byte(nil), img...); m[9] ^= 0xff; return m },
		"payload-flip": func() []byte {
			m := append([]byte(nil), img...)
			m[entryHeaderSize+3] ^= 0x40
			return m
		},
		"bad-version": func() []byte { m := append([]byte(nil), img...); m[4] = 0x7f; return m },
	}
	for name, mk := range corruptions {
		c := fresh()
		if err := os.WriteFile(path, mk(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(k); ok {
			t.Errorf("%s: corrupt entry served as a hit", name)
		}
		// The memory tier holds only what Decode accepted: a corrupt
		// image is never promoted.
		if st := c.Stats(); st.Misses != 1 || st.MemEntries != 0 {
			t.Errorf("%s: corruption must count as a miss and stay out of memory, stats %+v", name, st)
		}
		// The poisoned file must have been removed so Put can heal it.
		if _, err := os.Stat(path); err == nil && name != "empty" {
			t.Errorf("%s: corrupt disk entry not removed", name)
		}
		os.Remove(path)
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(Key{1, 2}); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(Key{1, 2}, &engine.Result{}) // must not panic
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats %+v", st)
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
}
