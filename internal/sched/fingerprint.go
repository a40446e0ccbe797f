package sched

import "simmr/internal/trace"

// Policy fingerprints give the replay result cache (internal/rcache) a
// stable 64-bit identity for every built-in policy: two policies with
// the same fingerprint MUST make identical scheduling decisions on
// every input, because cache keys built from the fingerprint treat
// their results as interchangeable. The engine's scheduling index is
// not part of a policy's identity — the differential suite pins it
// byte-identical to the scan — but a stateful policy (DynamicPriority)
// refuses to fingerprint at all: a wrong cache hit is a silent
// correctness bug, a bypass is just a slower replay.
//
// The version suffix in each tag ("/v1") is the invalidation lever: any
// behavior-affecting change to a policy must bump its tag, which the
// golden table in fingerprint_test.go turns into a conscious decision.

// Fingerprinter is implemented by policies whose scheduling behavior is
// a pure function of their configuration. Fingerprint returns a stable
// identity and true, or ok=false when the policy cannot guarantee one
// (hidden state, caller-supplied functions) and must bypass caching.
type Fingerprinter interface {
	Fingerprint() (uint64, bool)
}

// FingerprintOf returns p's stable fingerprint, or ok=false when p does
// not implement Fingerprinter (custom policies) or declines to provide
// one. Callers must treat ok=false as "never cache".
func FingerprintOf(p Policy) (uint64, bool) {
	f, ok := p.(Fingerprinter)
	if !ok {
		return 0, false
	}
	return f.Fingerprint()
}

// Fingerprint identifies FIFO: no parameters.
func (FIFO) Fingerprint() (uint64, bool) { return uint64(trace.FNVOffset.Str("sched.FIFO/v1")), true }

// Fingerprint identifies MaxEDF: no parameters.
func (MaxEDF) Fingerprint() (uint64, bool) {
	return uint64(trace.FNVOffset.Str("sched.MaxEDF/v1")), true
}

// Fingerprint identifies MinEDF folded with its estimator: the three
// estimator variants schedule differently and must never share entries.
func (p MinEDF) Fingerprint() (uint64, bool) {
	return uint64(trace.FNVOffset.Str("sched.MinEDF/v1").U64(uint64(p.Estimate))), true
}

// Fingerprint identifies Fair: no parameters.
func (Fair) Fingerprint() (uint64, bool) { return uint64(trace.FNVOffset.Str("sched.Fair/v1")), true }

// Fingerprint identifies Capacity by its share vector.
func (p Capacity) Fingerprint() (uint64, bool) {
	h := trace.FNVOffset.Str("sched.Capacity/v1").U64(uint64(len(p.Shares)))
	for _, s := range p.Shares {
		h = h.F64(s)
	}
	return uint64(h), true
}

// DynamicPriority mutates its Budgets as it schedules: identical
// configurations diverge as soon as state accumulates, so it always
// declines and bypasses the cache.
func (*DynamicPriority) Fingerprint() (uint64, bool) { return 0, false }
