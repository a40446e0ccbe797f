package sched

import "math"

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

// fp64 is a FNV-1a accumulator, the same idiom trace.ContentHash uses.
type fp64 uint64

const (
	fpOffset fp64   = 14695981039346656037
	fpPrime  uint64 = 1099511628211
)

func (h *fp64) byte(b byte) {
	*h = fp64((uint64(*h) ^ uint64(b)) * fpPrime)
}

func (h *fp64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fp64) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *fp64) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.u64(uint64(len(s)))
}

// fpTag hashes a versioned policy tag.
func fpTag(tag string) fp64 {
	h := fpOffset
	h.str(tag)
	return h
}

// Fingerprint identifies FIFO: no parameters.
func (FIFO) Fingerprint() (uint64, bool) { return uint64(fpTag("sched.FIFO/v1")), true }

// Fingerprint identifies MaxEDF: no parameters.
func (MaxEDF) Fingerprint() (uint64, bool) { return uint64(fpTag("sched.MaxEDF/v1")), true }

// Fingerprint identifies MinEDF folded with its estimator: the three
// estimator variants schedule differently and must never share entries.
func (p MinEDF) Fingerprint() (uint64, bool) {
	h := fpTag("sched.MinEDF/v1")
	h.u64(uint64(p.Estimate))
	return uint64(h), true
}

// Fingerprint identifies Fair: no parameters.
func (Fair) Fingerprint() (uint64, bool) { return uint64(fpTag("sched.Fair/v1")), true }

// Fingerprint identifies Capacity by its share vector.
func (p Capacity) Fingerprint() (uint64, bool) {
	h := fpTag("sched.Capacity/v1")
	h.u64(uint64(len(p.Shares)))
	for _, s := range p.Shares {
		h.f64(s)
	}
	return uint64(h), true
}

// DynamicPriority mutates its Budgets as it schedules: identical
// configurations diverge as soon as state accumulates, so it always
// declines and bypasses the cache.
func (*DynamicPriority) Fingerprint() (uint64, bool) { return 0, false }
