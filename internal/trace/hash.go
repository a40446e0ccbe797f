package trace

import "math"

// FNV is a 64-bit FNV-1a accumulator: the one fold behind trace
// digests, policy fingerprints (internal/sched) and result-cache keys
// (internal/rcache). Each method returns the folded state, so folds
// chain without a hash.Hash64 allocation or per-field interface calls.
// Start from FNVOffset.
type FNV uint64

// FNVOffset is FNV-1a's 64-bit offset basis: the empty fold.
const FNVOffset FNV = 14695981039346656037

const fnvPrime = 1099511628211

// U64 folds v's eight bytes, least significant first.
func (h FNV) U64(v uint64) FNV {
	for i := 0; i < 8; i++ {
		h = (h ^ FNV(v&0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// F64 folds v's IEEE-754 bits.
func (h FNV) F64(v float64) FNV { return h.U64(math.Float64bits(v)) }

// Str folds s's bytes, then its length, so that adjacent strings cannot
// trade bytes.
func (h FNV) Str(s string) FNV {
	for i := 0; i < len(s); i++ {
		h = (h ^ FNV(s[i])) * fnvPrime
	}
	return h.U64(uint64(len(s)))
}

// ContentHash returns a full-content 64-bit digest of the trace: the
// name, every job's (ID, arrival, deadline), each job's template shape
// (app, dataset, task counts) and EVERY entry of every per-task
// duration vector. It is the trace's one identity: the replay result
// cache keys on it (internal/rcache) and the run registry prints it as
// a run's trace_hash, so two traces differing only in interior task
// durations — exactly what a what-if perturbation or trace edit
// produces — never share a key or a name. It is not a cryptographic
// digest (the `.strc` store carries real CRCs for integrity). The
// expensive part — walking every duration entry — is memoized per
// Template (durations are immutable once hashed, the same contract as
// the template's profile cache; what-if scaling builds new Templates
// and transforms touch only Job-level fields), so after the first call
// over a template set the cost is O(jobs). Per-job fields (arrival,
// deadline) are always folded fresh, so in-place edits of arrivals or
// deadlines still re-key.
func (t *Trace) ContentHash() uint64 {
	h := FNVOffset.Str(t.Name).U64(uint64(len(t.Jobs)))
	for _, j := range t.Jobs {
		h = h.U64(uint64(j.ID)).F64(j.Arrival).F64(j.Deadline)
		tpl := j.Template
		if tpl == nil {
			h = h.U64(0)
			continue
		}
		h = h.U64(tpl.Digest())
	}
	return uint64(h)
}

// Digest folds the template's full content — identity fields plus
// every entry of every duration vector — memoizing the result: the
// template's part of ContentHash, and what the .strc writer buckets
// duplicate templates by. Racing writers store identical values, so the
// atomic needs no CAS.
func (tpl *Template) Digest() uint64 {
	if p := tpl.digest.Load(); p != nil {
		return *p
	}
	th := FNVOffset.Str(tpl.AppName).Str(tpl.Dataset).
		U64(uint64(tpl.NumMaps)).U64(uint64(tpl.NumReduces))
	for _, col := range [][]float64{
		tpl.MapDurations, tpl.FirstShuffle, tpl.TypicalShuffle, tpl.ReduceDurations,
	} {
		th = th.U64(uint64(len(col)))
		for _, d := range col {
			th = th.F64(d)
		}
	}
	v := uint64(th)
	tpl.digest.Store(&v)
	return v
}
