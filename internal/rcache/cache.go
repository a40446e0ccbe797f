package rcache

import (
	"container/list"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"simmr/internal/engine"
)

// DefaultMemBytes is the in-memory tier budget when Options.MemBytes
// is unset. A resident Result costs its size in memory, 48 B per job
// plus its name bytes (~1.08 MB at 20 000 jobs), so the tier holds
// about 60 results of that size, or thousands of small ones.
const DefaultMemBytes = 64 << 20

// entryOverhead approximates the per-entry bookkeeping cost (map slot,
// list node, key, totals) charged against the byte budget on top of
// the jobs and names.
const entryOverhead = 128

// diskExt is the on-disk entry suffix; Clear only ever removes files
// carrying it, and writeFileAtomic's temp files, so pointing -cache-dir
// at a populated directory cannot destroy foreign data.
const diskExt = ".srrc"

// isTempName reports whether name is exactly one of writeFileAtomic's
// temp files, <32 hex digits>.srrc.<decimal digits>.tmp (os.CreateTemp
// replaces the "*" with decimal digits): a writer killed between write
// and rename leaves one behind, and only Clear removes it.
func isTempName(name string) bool {
	key, rest, ok := strings.Cut(name, diskExt+".")
	digits, isTmp := strings.CutSuffix(rest, ".tmp")
	return ok && isTmp && len(key) == 32 && digits != "" &&
		strings.Trim(key, "0123456789abcdef") == "" && strings.Trim(digits, "0123456789") == ""
}

// Options configures New.
type Options struct {
	// Dir enables the on-disk tier: one file per entry, written
	// atomically. "" keeps the cache memory-only.
	Dir string
	// MemBytes budgets the in-memory tier of decoded Results, each
	// charged its size there; <= 0 means DefaultMemBytes. With Dir set
	// the tier holds the entries read back from disk (and any whose disk
	// write failed); without Dir it holds every Put.
	MemBytes int64
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits       uint64 `json:"hits"`
	DiskHits   uint64 `json:"disk_hits"` // subset of Hits served by the disk tier
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	MemBytes   int64  `json:"mem_bytes"`
	MemEntries int    `json:"mem_entries"`
}

// Cache is the two-tier store. All methods are safe for concurrent use
// and nil-receiver-safe: a nil *Cache is an always-miss cache, so call
// sites need no branching.
type Cache struct {
	dir    string
	budget int64

	// The memory tier: one LRU under one lock, holding at most budget
	// bytes. The lock covers map and list surgery only — a hit's copy,
	// Decode and the disk tier run outside it.
	mu    sync.Mutex
	m     map[Key]*list.Element
	lru   list.List // of *resident, most recently used first
	bytes int64

	hits      atomic.Uint64
	diskHits  atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// resident is an entry of the memory tier: a Result with its jobs kept
// with no pointer among them and every name in one string, so that a
// collection marks one string per entry rather than following a name
// pointer per job, every cycle. A hit copies it out into the caller's
// own Result.
type resident struct {
	key    Key
	totals engine.Result // Jobs nil
	jobs   []outcome
	names  string
}

// outcome is an engine.JobOutcome in a resident: its name is the names
// from the previous job's nameEnd to its own.
type outcome struct {
	id                                     int
	arrival, finish, deadline, mapStageEnd float64
	events, nameEnd                        uint32
}

// newResident copies res into the memory tier's form, under k. It fails
// on the counts an entry image cannot hold either.
func newResident(k Key, res *engine.Result) (*resident, error) {
	nameLen, err := checkCounts(res)
	if err != nil {
		return nil, err
	}
	r := &resident{key: k, totals: *res, jobs: make([]outcome, len(res.Jobs))}
	r.totals.Jobs = nil
	var names strings.Builder
	names.Grow(nameLen)
	for i := range res.Jobs {
		j := &res.Jobs[i]
		names.WriteString(j.Name)
		r.jobs[i] = outcome{j.ID, j.Arrival, j.Finish, j.Deadline, j.MapStageEnd, uint32(j.Events), uint32(names.Len())}
	}
	r.names = names.String()
	return r, nil
}

// result is the caller's own copy of r, names sliced from r's string.
// Field by field: a whole JobOutcome stored while a collection runs goes
// through the runtime's bulk write barrier, job by job.
func (r *resident) result() *engine.Result {
	res := r.totals
	res.Jobs = make([]engine.JobOutcome, len(r.jobs))
	start := uint32(0)
	for i := range r.jobs {
		o, j := &r.jobs[i], &res.Jobs[i]
		j.ID, j.Name, j.Events = o.id, r.names[start:o.nameEnd], int(o.events)
		j.Arrival, j.Finish, j.Deadline, j.MapStageEnd = o.arrival, o.finish, o.deadline, o.mapStageEnd
		start = o.nameEnd
	}
	return &res
}

// cost is what r is charged against the budget.
func (r *resident) cost() int64 {
	return int64(len(r.jobs))*int64(unsafe.Sizeof(outcome{})) + int64(len(r.names)) + entryOverhead
}

// New builds a cache. If Dir is set it is created eagerly so the first
// Put never races a missing directory; creation failure degrades to
// memory-only rather than erroring — the cache is an accelerator, not
// a dependency.
func New(opts Options) *Cache {
	c := &Cache{dir: opts.Dir, budget: opts.MemBytes, m: make(map[Key]*list.Element)}
	if c.budget <= 0 {
		c.budget = DefaultMemBytes
	}
	if c.dir != "" {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			c.dir = ""
		}
	}
	return c
}

// Get returns the cached Result for k, consulting memory then disk. A
// memory hit is one copy. A disk hit is decoded once — Decode, which
// checks CRCs, key and bounds, is the only way bytes from outside the
// process reach memory — and promoted; with a disk tier that promotion
// is what fills the memory tier. Every returned Result is the caller's
// own to mutate. An image that fails to decode is a miss and is
// deleted: corruption costs a recompute, never a wrong answer.
func (c *Cache) Get(k Key) (*engine.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, mem := c.m[k]
	var r *resident
	if mem {
		c.lru.MoveToFront(e)
		r = e.Value.(*resident)
	}
	c.mu.Unlock()
	var res *engine.Result
	if mem {
		res = r.result()
	} else if c.dir != "" {
		if img, err := os.ReadFile(c.entryPath(k)); err == nil {
			if res, err = Decode(img, k); err == nil {
				c.insert(k, res)
				c.diskHits.Add(1)
			} else {
				// Corrupt on disk: delete so the slot heals on next Put.
				os.Remove(c.entryPath(k))
			}
		}
	}
	if res == nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return res, true
}

// Put stores res under k. With a disk tier it writes the disk alone: a
// result never read back does not occupy the memory budget. A
// memory-only cache, or a failed disk write, stores a copy of res in
// memory instead, unencoded, so a broken disk never loses in-process
// memoization. Counts no entry holds (2^32 events in a job) are not
// cached. The caller keeps res and may mutate it.
func (c *Cache) Put(k Key, res *engine.Result) {
	if c == nil || res == nil {
		return
	}
	if c.dir != "" {
		if data, err := Encode(k, res); err == nil && writeFileAtomic(c.entryPath(k), data) == nil {
			return
		}
	}
	c.insert(k, res)
}

// insert copies res into the memory tier, evicting LRU entries until
// it fits the budget. Entries larger than the whole budget skip the
// memory tier (they would only thrash it); the disk tier still serves
// them.
func (c *Cache) insert(k Key, res *engine.Result) {
	r, err := newResident(k, res)
	if err != nil || r.cost() > c.budget {
		return
	}
	c.mu.Lock()
	e, ok := c.m[k]
	if ok {
		c.bytes -= e.Value.(*resident).cost()
		e.Value = r
		c.lru.MoveToFront(e)
	} else {
		e = c.lru.PushFront(r)
		c.m[k] = e
	}
	c.bytes += r.cost()
	// Evict on both paths: an overwrite that grows the payload can push
	// the tier over budget just as a fresh insert can. The just-touched
	// entry is at the front and excluded, so the loop always terminates.
	for c.bytes > c.budget && c.lru.Back() != e {
		c.evictions.Add(1)
		c.drop(c.lru.Back())
	}
	c.mu.Unlock()
}

// drop takes e out of the memory tier. The caller holds c.mu.
func (c *Cache) drop(e *list.Element) {
	r := c.lru.Remove(e).(*resident)
	delete(c.m, r.key)
	c.bytes -= r.cost()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      c.hits.Load(),
		DiskHits:  c.diskHits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	c.mu.Lock()
	st.MemBytes, st.MemEntries = c.bytes, len(c.m)
	c.mu.Unlock()
	return st
}

// DiskInfo scans the disk tier and reports entry count and total
// bytes — the `simmr cache info` backing.
func (c *Cache) DiskInfo() (entries int, bytes int64, err error) {
	if c == nil || c.dir == "" {
		return 0, 0, nil
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), diskExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		entries++
		bytes += info.Size()
	}
	return entries, bytes, nil
}

// Clear empties the memory tier and deletes every disk entry and every
// temp file an interrupted writer left (only files named as the cache
// names them). A concurrent writer whose temp file it deletes fails its
// rename and keeps the entry in memory. The first error is reported but
// removal continues past it.
func (c *Cache) Clear() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	c.m = make(map[Key]*list.Element)
	c.lru.Init()
	c.bytes = 0
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	var first error
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), diskExt) && !isTempName(de.Name()) {
			continue
		}
		// A file already gone was removed by a concurrent Clear, or was a
		// temp file its writer renamed or cleaned up meanwhile.
		if err := os.Remove(filepath.Join(c.dir, de.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
			first = err
		}
	}
	return first
}

func (c *Cache) entryPath(k Key) string {
	return filepath.Join(c.dir, k.String()+diskExt)
}

// writeFileAtomic is the tracebin.WriteFile pattern: write a sibling
// temp file, then rename into place, so a reader never observes a
// half-written entry. The temp name is unique per writer so two
// goroutines storing the same key never interleave into one file.
// A failure leaves no temp litter and no entry, and is reported so Put
// can keep the entry in memory instead.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
