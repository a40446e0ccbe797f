// Package rcache is a two-tier, content-addressed replay result cache.
//
// The engine is fully deterministic: identical (trace, config, policy)
// inputs always produce byte-identical []JobOutcome. That determinism
// is the entire correctness argument here — the cache never needs an
// invalidation protocol, because a key can only collide with an entry
// computed from the same inputs ("invalidation by construction"). The
// key is a 128-bit fingerprint over the trace's full-content digest
// (trace.ContentHash — every duration entry; the run registry prints
// the same digest as a run's trace_hash), a canonical binary encoding of
// the engine.Config identity fields, the sched policy fingerprint, and
// engine.SemanticsVersion; anything unfingerprintable (custom or
// stateful policies) bypasses the cache rather than risk a wrong hit.
//
// Tier one is a byte-budgeted in-memory LRU holding encoded entries;
// tier two is an optional on-disk store, one file per entry, written
// atomically (trace.WriteFileAtomic) and CRC-guarded. Any decode or CRC
// failure on either tier is treated as a miss and silently falls back to
// recompute — corruption can cost a replay, never correctness.
package rcache

import (
	"fmt"

	"simmr/internal/engine"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// keyVersion is folded into every key. Bump it whenever the entry
// encoding or the key material changes: old entries simply stop being
// addressable, which is the whole invalidation story. The third
// invalidation lever — engine behavior itself — is versioned
// separately by engine.SemanticsVersion (also folded into every key),
// so a simulation-semantics change invalidates a persistent cache dir
// without touching the encoding version, and vice versa.
const keyVersion = 1

// Key is the 128-bit content address of one replay result: two
// independent FNV-1a lanes over the same canonical material. 64 bits
// would already make accidental collision unlikely; the second lane
// puts it out of reach for cache populations far beyond anything a
// sweep grid produces.
type Key struct {
	Hi, Lo uint64
}

// String renders the key as 32 hex digits — also the on-disk filename.
func (k Key) String() string {
	return fmt.Sprintf("%016x%016x", k.Hi, k.Lo)
}

// KeyFor computes the content address for replaying tr (identified by
// traceDigest = tr.ContentHash()) under cfg with policy p. ok is false
// when the policy is nil or declines to fingerprint; callers must bypass
// the cache then. The digest is an argument so that a fan-out takes it
// once per distinct trace — the run plan does, and registers the same
// value as the run's trace identity — however many replays key off it.
//
// The digest MUST cover every entry of every duration vector, as
// ContentHash does: traces differing only in interior task durations —
// exactly what what-if perturbations produce — must not collide and
// serve each other's results.
//
// Config.Sink is deliberately excluded: sinks observe a replay, they
// never alter its outcomes. The consequence — documented at every
// wiring point — is that a cache hit does not re-emit sink events,
// because no simulation ran.
func KeyFor(traceDigest uint64, cfg engine.Config, p sched.Policy) (Key, bool) {
	fp, ok := sched.FingerprintOf(p)
	if !ok {
		return Key{}, false
	}
	return Key{
		Hi: keyLane(0x9e3779b97f4a7c15, traceDigest, cfg, fp),
		Lo: keyLane(0, traceDigest, cfg, fp),
	}, true
}

// keyLane is one FNV-1a pass over the canonical key material; lane
// seeds differ so Hi and Lo are independent hashes of the same bytes.
func keyLane(seed, traceDigest uint64, cfg engine.Config, policyFP uint64) uint64 {
	h := trace.FNVOffset.U64(seed).U64(keyVersion).U64(engine.SemanticsVersion).U64(traceDigest)
	// Canonical Config encoding: every field that can change outcomes,
	// in declaration order, fixed width. Sink is observability-only.
	h = h.U64(uint64(int64(cfg.MapSlots))).U64(uint64(int64(cfg.ReduceSlots))).
		F64(cfg.MinMapPercentCompleted)
	// Bit 0 is spent: it keyed a knob that no longer exists, and the other
	// bits keep their values so that the keys in use did not move.
	var flags uint64
	if cfg.NoShuffleModel {
		flags |= 2
	}
	if cfg.NoFirstShuffleSpecialCase {
		flags |= 4
	}
	if cfg.PreemptMapTasks {
		flags |= 8
	}
	h = h.U64(flags).U64(policyFP)
	return uint64(h)
}
