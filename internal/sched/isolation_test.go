package sched

import (
	"fmt"
	"testing"
	"unsafe"
)

// alloc is one heap allocation an index owns: where it starts and how
// many bytes the index asked for.
type alloc struct {
	what string
	base uintptr
	size uintptr
}

func sliceAlloc[T any](what string, s []T) alloc {
	var z T
	return alloc{what, uintptr(unsafe.Pointer(unsafe.SliceData(s))), uintptr(cap(s)) * unsafe.Sizeof(z)}
}

func tournamentAllocs(prefix string, t *Tournament) []alloc {
	out := []alloc{
		{prefix + "Tournament", uintptr(unsafe.Pointer(t)), unsafe.Sizeof(tournamentBlock{})},
		sliceAlloc(prefix+"jobs", t.jobs),
		sliceAlloc(prefix+"free", t.free),
	}
	for k := 0; k < t.n; k++ {
		out = append(out,
			sliceAlloc(fmt.Sprintf("%swin[%d]", prefix, k), t.trees[k].win),
			sliceAlloc(fmt.Sprintf("%selig[%d]", prefix, k), t.trees[k].elig))
	}
	return out
}

// indexAllocs lists every allocation behind a scheduling index — the
// mutable state one engine writes on every event.
func indexAllocs(t *testing.T, ix BatchPolicy) []alloc {
	t.Helper()
	switch ix := ix.(type) {
	case *jobIndex:
		return append(tournamentAllocs("", ix.t),
			alloc{"jobIndex", uintptr(unsafe.Pointer(ix)), unsafe.Sizeof(jobIndexBlock{})},
			sliceAlloc("grants", ix.grants))
	case *capacityIndex:
		out := []alloc{
			{"capacityIndex", uintptr(unsafe.Pointer(ix)), unsafe.Sizeof(capacityIndexBlock{})},
			sliceAlloc("queues", ix.queues),
			sliceAlloc("grants", ix.grants),
		}
		for qi := range ix.queues {
			p := fmt.Sprintf("queue[%d].", qi)
			out = append(out, sliceAlloc(p+"run", ix.queues[qi].run))
			out = append(out, tournamentAllocs(p, ix.queues[qi].t)...)
		}
		return out
	default:
		t.Fatalf("no allocation walk for index type %T", ix)
		return nil
	}
}

// TestIndexIsolation guards index.go's "Line isolation": engines live in
// a process-wide pool, any two may run on different cores at once, and
// each rewrites its index on every event — so no allocation of one
// engine's index may share an isolation unit (an aligned pair of cache
// lines, which the prefetcher moves together) with another's. The
// slowdown that sharing causes (a 2-worker sweep costing up to twice the
// CPU) cannot be asserted in CI; what makes it impossible can: every
// index allocation is a whole number of units, at build time and after
// growth, and two indexes built and grown in lockstep by one goroutine —
// the worst case, both fed from the same allocator spans — touch
// disjoint units.
func TestIndexIsolation(t *testing.T) {
	// One 64-byte line is not enough: the adjacent-line prefetcher moves
	// aligned 128-byte pairs (index.go has the measurement).
	if isolationUnit%128 != 0 {
		t.Fatalf("isolationUnit = %d, want a multiple of 128", isolationUnit)
	}
	for _, p := range []Policy{FIFO{}, MinEDF{}, Fair{}, Capacity{Shares: []float64{3, 1, 2}}} {
		a, b := IndexFor(p, nil), IndexFor(p, nil)
		check := func(stage string) {
			t.Helper()
			units := map[uintptr]string{}
			for side, ix := range []BatchPolicy{a, b} {
				for _, al := range indexAllocs(t, ix) {
					if al.size == 0 || al.size%isolationUnit != 0 {
						t.Errorf("%s %s: %s is a %d-byte allocation, not a whole number of %d-byte units",
							p.Name(), stage, al.what, al.size, isolationUnit)
						continue
					}
					owner := fmt.Sprintf("index %d %s", side, al.what)
					for l := al.base / isolationUnit; l <= (al.base+al.size-1)/isolationUnit; l++ {
						if prev, taken := units[l]; taken {
							t.Errorf("%s %s: %s shares an isolation unit with %s", p.Name(), stage, owner, prev)
							break
						}
						units[l] = owner
					}
				}
			}
		}
		check("as built")

		// Grow both in lockstep past several doublings of every array:
		// leaves and trees (admit), free list (depart), grants (assign).
		const n = 700
		var jobs [2][]*JobInfo
		for id := 0; id < n; id++ {
			for side, ix := range []BatchPolicy{a, b} {
				j := mkJob(id, float64(id), float64(2*n-id), 3, 1)
				jobs[side] = append(jobs[side], j)
				ix.OnJobAdmit(j, 64, 64)
			}
		}
		for _, ix := range []BatchPolicy{a, b} {
			if got := len(ix.AssignMapSlots(nil, n)); got != n {
				t.Fatalf("%s: %d map slots granted, want %d", p.Name(), got, n)
			}
		}
		check("grown")
		for side, ix := range []BatchPolicy{a, b} {
			for _, j := range jobs[side] {
				ix.OnJobDepart(j)
			}
		}
		check("drained")
	}
}
