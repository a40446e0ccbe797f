// Package model implements the MapReduce performance model of §V-A,
// introduced in the authors' ARIA paper and used by the MinEDF scheduler
// to size per-job slot allocations.
//
// The core result: for n tasks processed greedily by k slots with average
// task duration avg and maximum max, the makespan T satisfies
//
//	n·avg/k  <=  T  <=  (n-1)·avg/k + max
//
// Composing the per-phase bounds (map, shuffle/sort, reduce) yields job
// completion-time estimates of the separable form
//
//	T = A·N_M/S_M + B·N_R/S_R + C
//
// which, solved as an inverse problem on the deadline hyperbola with a
// Lagrange multiplier, gives the minimal total number of slots meeting a
// deadline.
package model

import (
	"math"

	"simmr/internal/trace"
)

// Bounds holds a lower and upper estimate of a completion time.
type Bounds struct {
	Low, Up float64
}

// Coeffs are the coefficients of the separable completion-time form
// T = A·N_M/S_M + B·N_R/S_R + C (equation 1 of the paper).
type Coeffs struct {
	A, B, C float64
}

// Eval computes T for a slot allocation.
func (c Coeffs) Eval(numMaps, numReduces, mapSlots, reduceSlots int) float64 {
	t := c.C
	if mapSlots > 0 {
		t += c.A * float64(numMaps) / float64(mapSlots)
	}
	if numReduces > 0 && reduceSlots > 0 {
		t += c.B * float64(numReduces) / float64(reduceSlots)
	}
	return t
}

// LowCoeffs returns the lower-bound coefficients for a job profile:
// map stage n·avg/k, reduce waves n·(typShuffle+reduce)avg/k, plus the
// non-overlapping first-shuffle latency.
func LowCoeffs(p trace.Profile) Coeffs {
	return Coeffs{
		A: p.Map.Avg,
		B: p.TypicalShuffle.Avg + p.Reduce.Avg,
		C: p.FirstShuffle.Avg,
	}
}

// UpCoeffs returns upper-bound coefficients. The (n-1)·avg/k + max form
// is relaxed to n·avg/k + max (still a valid upper bound) so the
// expression stays separable in N/S.
func UpCoeffs(p trace.Profile) Coeffs {
	return Coeffs{
		A: p.Map.Avg,
		B: p.TypicalShuffle.Avg + p.Reduce.Avg,
		C: p.Map.Max + p.FirstShuffle.Max + p.TypicalShuffle.Max + p.Reduce.Max,
	}
}

// AvgCoeffs returns the midpoint coefficients used for deadline sizing.
func AvgCoeffs(p trace.Profile) Coeffs {
	lo, up := LowCoeffs(p), UpCoeffs(p)
	return Coeffs{A: (lo.A + up.A) / 2, B: (lo.B + up.B) / 2, C: (lo.C + up.C) / 2}
}

// JobBounds estimates completion-time bounds for a profiled job run with
// the given slot allocation.
func JobBounds(p trace.Profile, mapSlots, reduceSlots int) Bounds {
	return Bounds{
		Low: LowCoeffs(p).Eval(p.NumMaps, p.NumReduces, mapSlots, reduceSlots),
		Up:  UpCoeffs(p).Eval(p.NumMaps, p.NumReduces, mapSlots, reduceSlots),
	}
}

// Allocation is a number of map and reduce slots granted to one job.
type Allocation struct {
	MapSlots, ReduceSlots int
	// Feasible reports whether the allocation meets the requested
	// deadline; when false, the allocation is the clamped maximum.
	Feasible bool
}

// MinimalSlotsCoeffs solves the inverse problem of §V-A: the fewest
// total slots (S_M + S_R) such that the completion time estimated with
// coefficients c meets `deadline` (a duration relative to job start).
// All integral points on the hyperbola A·N_M/S_M + B·N_R/S_R =
// deadline − C are feasible allocations; the continuous minimum of
// S_M + S_R, by Lagrange multipliers, is at
//
//	S_M = (a + sqrt(a·b)) / d,   S_R = (b + sqrt(a·b)) / d
//
// with a = A·N_M, b = B·N_R, d = deadline − C. The continuous solution
// is rounded up and then greedily tightened while the deadline still
// holds. Results are clamped to the cluster capacity (maxMap, maxReduce)
// and to the job's task counts (extra slots beyond tasks are useless).
// MinEDF passes AvgCoeffs; LowCoeffs (optimistic) and UpCoeffs
// (conservative) are the MinEDF-estimator ablation.
func MinimalSlotsCoeffs(p trace.Profile, c Coeffs, deadline float64, maxMap, maxReduce int) Allocation {
	capM := min(maxMap, p.NumMaps)
	capR := min(maxReduce, p.NumReduces)
	if capM < 1 {
		capM = 1
	}
	if p.NumReduces == 0 {
		capR = 0
	} else if capR < 1 {
		capR = 1
	}
	maxAlloc := Allocation{MapSlots: capM, ReduceSlots: capR}
	maxAlloc.Feasible = c.Eval(p.NumMaps, p.NumReduces, capM, capR) <= deadline

	d := deadline - c.C
	if d <= 0 || !maxAlloc.Feasible {
		// Deadline unattainable even with everything: grant the max.
		return maxAlloc
	}

	a := c.A * float64(p.NumMaps)
	b := c.B * float64(p.NumReduces)
	sqrtAB := math.Sqrt(a * b)
	sm := clampInt(int(math.Ceil((a+sqrtAB)/d)), 1, capM)
	sr := 0
	if p.NumReduces > 0 {
		sr = clampInt(int(math.Ceil((b+sqrtAB)/d)), 1, capR)
	}

	// Rounding may have left slack or (after clamping) a violation;
	// first grow to feasibility, then shrink greedily.
	for c.Eval(p.NumMaps, p.NumReduces, sm, sr) > deadline && (sm < capM || sr < capR) {
		// Grow the side with the larger marginal gain.
		if gainM, gainR := shrinkGain(c, p, sm, sr); gainM >= gainR && sm < capM {
			sm++
		} else if sr < capR {
			sr++
		} else {
			sm++
		}
	}
	for {
		switch {
		case sm > 1 && c.Eval(p.NumMaps, p.NumReduces, sm-1, sr) <= deadline:
			sm--
		case sr > 1 && c.Eval(p.NumMaps, p.NumReduces, sm, sr-1) <= deadline:
			sr--
		default:
			return Allocation{MapSlots: sm, ReduceSlots: sr, Feasible: true}
		}
	}
}

// shrinkGain returns the completion-time reduction from adding one map
// (resp. reduce) slot at the current allocation.
func shrinkGain(c Coeffs, p trace.Profile, sm, sr int) (gainM, gainR float64) {
	cur := c.Eval(p.NumMaps, p.NumReduces, sm, sr)
	gainM = cur - c.Eval(p.NumMaps, p.NumReduces, sm+1, sr)
	if p.NumReduces > 0 {
		gainR = cur - c.Eval(p.NumMaps, p.NumReduces, sm, sr+1)
	}
	return gainM, gainR
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
