package rcache

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"simmr/internal/engine"
)

// DefaultMemBytes is the in-memory tier budget when Options.MemBytes
// is unset. An entry costs ~54 B per job (~1.08 MB at 20 000 jobs), so
// it holds about 60 results of that size, or thousands of small ones.
const DefaultMemBytes = 64 << 20

// entryOverhead approximates the per-entry bookkeeping cost (map slot,
// list node, key) charged against the byte budget on top of the
// encoded payload.
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

// Observer receives cache events for telemetry. All methods must be
// safe for concurrent use; telemetry.SimMetrics implements it with
// nil-receiver-safe methods.
type Observer interface {
	RCacheHit(disk bool)
	RCacheMiss()
	RCacheEvictions(n uint64)
	RCacheBytes(n int64)
}

// Options configures New.
type Options struct {
	// Dir enables the on-disk tier: one file per entry, written
	// atomically. "" keeps the cache memory-only.
	Dir string
	// MemBytes budgets the in-memory tier; <= 0 means DefaultMemBytes.
	// With Dir set the tier holds the entries read back from disk (and
	// any whose disk write failed); without Dir it holds every Put.
	MemBytes int64
	// Obs, when non-nil, receives hit/miss/eviction/bytes events.
	Obs Observer
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
	obs    Observer

	// The memory tier: one LRU under one lock, holding at most budget
	// bytes. The lock covers map and list surgery only — Decode and the
	// disk tier run outside it.
	mu    sync.Mutex
	m     map[Key]*node
	head  *node // most recently used
	tail  *node // least recently used
	bytes int64

	hits      atomic.Uint64
	diskHits  atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// node is one resident entry in the intrusive LRU list.
type node struct {
	key        Key
	data       []byte
	prev, next *node
}

func (n *node) cost() int64 { return int64(len(n.data)) + entryOverhead }

// New builds a cache. If Dir is set it is created eagerly so the first
// Put never races a missing directory; creation failure degrades to
// memory-only rather than erroring — the cache is an accelerator, not
// a dependency.
func New(opts Options) *Cache {
	c := &Cache{dir: opts.Dir, obs: opts.Obs, budget: opts.MemBytes, m: make(map[Key]*node)}
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

// Get returns the cached Result for k, consulting memory then disk.
// Disk hits are promoted into the memory tier; with a disk tier that
// promotion is what fills it, so the first re-read of an entry inside
// one process costs one disk read. Every returned Result
// is freshly decoded, so callers may mutate it freely. Any decode or
// CRC failure — either tier — counts as a miss and evicts the bad
// bytes; corruption costs a recompute, never a wrong answer.
func (c *Cache) Get(k Key) (*engine.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	n, ok := c.m[k]
	var data []byte
	if ok {
		c.moveToFront(n)
		data = n.data
	}
	c.mu.Unlock()
	if ok {
		res, err := Decode(data, k)
		if err == nil {
			c.hits.Add(1)
			if c.obs != nil {
				c.obs.RCacheHit(false)
			}
			return res, true
		}
		c.remove(k) // poisoned in-memory entry: drop it, try disk
	}
	if c.dir != "" {
		if img, err := os.ReadFile(c.entryPath(k)); err == nil {
			if res, err := Decode(img, k); err == nil {
				c.insert(k, img)
				c.hits.Add(1)
				c.diskHits.Add(1)
				if c.obs != nil {
					c.obs.RCacheHit(true)
				}
				return res, true
			}
			// Corrupt on disk: delete so the slot heals on next Put.
			os.Remove(c.entryPath(k))
		}
	}
	c.misses.Add(1)
	if c.obs != nil {
		c.obs.RCacheMiss()
	}
	return nil, false
}

// Put stores res under k. With a disk tier it writes the disk alone: a
// result written once and never read again does not occupy the memory
// budget, and Get promotes the ones that are read back. A memory-only
// cache, or a disk write that fails (disk full, directory gone), stores
// into the memory tier instead, so a broken disk never loses in-process
// memoization. Failures are otherwise silent by design (encode
// overflow): the caller already holds the fresh result and loses
// nothing but future hits.
func (c *Cache) Put(k Key, res *engine.Result) {
	if c == nil || res == nil {
		return
	}
	data, err := Encode(k, res)
	if err != nil {
		return
	}
	if c.dir == "" || writeFileAtomic(c.entryPath(k), data) != nil {
		c.insert(k, data)
	}
}

// insert places encoded bytes into the memory tier, evicting LRU
// entries until it fits the budget. Entries larger than the whole
// budget skip the memory tier (they would only thrash it); the disk
// tier still serves them.
func (c *Cache) insert(k Key, data []byte) {
	if int64(len(data))+entryOverhead > c.budget {
		return
	}
	var evicted uint64
	c.mu.Lock()
	n, ok := c.m[k]
	if ok {
		c.bytes -= n.cost()
		n.data = data
		c.moveToFront(n)
	} else {
		n = &node{key: k, data: data}
		c.m[k] = n
		c.pushFront(n)
	}
	c.bytes += n.cost()
	// Evict on both paths: an overwrite that grows the payload can push
	// the tier over budget just as a fresh insert can. The just-touched
	// node is at the front and excluded, so the loop always terminates.
	for c.bytes > c.budget && c.tail != n {
		evicted++
		c.drop(c.tail)
	}
	resident := c.bytes
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
		if c.obs != nil {
			c.obs.RCacheEvictions(evicted)
		}
	}
	if c.obs != nil {
		c.obs.RCacheBytes(resident)
	}
}

// remove drops k from the memory tier (poisoned entry path).
func (c *Cache) remove(k Key) {
	c.mu.Lock()
	if n, ok := c.m[k]; ok {
		c.drop(n)
	}
	c.mu.Unlock()
}

// drop takes n out of the memory tier. The caller holds c.mu.
func (c *Cache) drop(n *node) {
	c.unlink(n)
	delete(c.m, n.key)
	c.bytes -= n.cost()
}

func (c *Cache) pushFront(n *node) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache) moveToFront(n *node) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
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

// Dir reports the disk-tier directory ("" when memory-only).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
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
	c.m = make(map[Key]*node)
	c.head, c.tail, c.bytes = nil, nil, 0
	c.mu.Unlock()
	if c.obs != nil {
		c.obs.RCacheBytes(0)
	}
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
