package simmr

import "simmr/internal/rcache"

// Cache is the content-addressed replay result cache: a byte-budgeted
// in-memory LRU of decoded results in front of an optional on-disk
// store. The engine's determinism makes it sound by construction — a
// key is a 128-bit fingerprint over (full-content trace digest, config,
// policy, engine semantics version), so it can only hit an entry
// computed from the very same inputs, and corrupted disk entries
// silently fall back to recompute. A memory hit costs one copy of the
// result's per-job outcomes, and every hit is the caller's own to
// mutate. Share one Cache across Replays, sweeps, and batches; all
// methods are safe for concurrent use, and a nil *Cache disables
// caching everywhere it is accepted.
//
// Policies without a stable fingerprint (DynamicPriority, custom
// policies) bypass the cache.
// A cache hit skips the engine entirely, so observability sinks do NOT
// fire for cached cells — hit counts are surfaced in Stats, telemetry,
// and the run registry so a memoized run is never mistaken for a
// fresh simulation.
type Cache = rcache.Cache

// CacheStats snapshots a Cache's hit/miss/eviction counters.
type CacheStats = rcache.Stats

// CacheOptions configures NewCache.
type CacheOptions struct {
	// Dir enables the on-disk tier (one CRC-guarded file per entry,
	// written atomically); "" keeps the cache memory-only.
	Dir string
	// MemBytes budgets the in-memory tier of decoded results, each
	// charged its size there (48 B per job plus its names); <= 0 selects
	// the default (rcache.DefaultMemBytes, 64 MiB). With Dir set the
	// tier holds the results read back from disk (a result is written
	// to disk alone unless that write fails); without Dir it holds every
	// result.
	MemBytes int64
	// Telemetry, when set, reports the cache's counts as the
	// simmr_rcache_* series, read from the cache at scrape time.
	Telemetry *Telemetry
}

// NewCache builds a replay result cache.
func NewCache(o CacheOptions) *Cache {
	c := rcache.New(rcache.Options{Dir: o.Dir, MemBytes: o.MemBytes})
	o.Telemetry.BindCache(c)
	return c
}
