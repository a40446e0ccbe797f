package trace

import "math"

// fnv64 constants (FNV-1a), inlined so hashing needs no hash.Hash64
// allocation or per-field interface calls.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnv64 uint64

func (h fnv64) u64(v uint64) fnv64 {
	for i := 0; i < 8; i++ {
		h = (h ^ fnv64(v&0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

func (h fnv64) f64(v float64) fnv64 { return h.u64(math.Float64bits(v)) }

func (h fnv64) str(s string) fnv64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnv64(s[i])) * fnvPrime
	}
	return h.u64(uint64(len(s)))
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
// deadline) are always folded fresh, so in-place edits like StripIdle
// or deadline reassignment still re-key.
func (t *Trace) ContentHash() uint64 {
	h := fnv64(fnvOffset).str(t.Name).u64(uint64(len(t.Jobs)))
	for _, j := range t.Jobs {
		h = h.u64(uint64(j.ID)).f64(j.Arrival).f64(j.Deadline)
		tpl := j.Template
		if tpl == nil {
			h = h.u64(0)
			continue
		}
		h = h.u64(tpl.Digest())
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
	th := fnv64(fnvOffset).str(tpl.AppName).str(tpl.Dataset).
		u64(uint64(tpl.NumMaps)).u64(uint64(tpl.NumReduces))
	for _, col := range [][]float64{
		tpl.MapDurations, tpl.FirstShuffle, tpl.TypicalShuffle, tpl.ReduceDurations,
	} {
		th = th.u64(uint64(len(col)))
		for _, d := range col {
			th = th.f64(d)
		}
	}
	v := uint64(th)
	tpl.digest.Store(&v)
	return v
}
