package model

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"simmr/internal/trace"
)

func profileFor(t *testing.T) trace.Profile {
	t.Helper()
	tpl := &trace.Template{
		AppName: "p", NumMaps: 100, NumReduces: 20,
		MapDurations:    constSlice(100, 10),
		FirstShuffle:    constSlice(20, 4),
		TypicalShuffle:  constSlice(20, 6),
		ReduceDurations: constSlice(20, 3),
	}
	if err := tpl.Validate(); err != nil {
		t.Fatal(err)
	}
	return tpl.Profile()
}

func constSlice(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestStageBoundsKnownValues(t *testing.T) {
	b := StageBounds(10, 2, 5, 8)
	if b.Low != 25 {
		t.Fatalf("low = %v, want n*avg/k = 25", b.Low)
	}
	if b.Up != 9*5/2.0+8 {
		t.Fatalf("up = %v, want (n-1)*avg/k + max = 30.5", b.Up)
	}
	if b.Avg() != (25+30.5)/2 {
		t.Fatalf("avg = %v", b.Avg())
	}
}

func TestStageBoundsDegenerate(t *testing.T) {
	if b := StageBounds(0, 4, 5, 8); b.Low != 0 || b.Up != 0 {
		t.Fatalf("zero tasks: %+v", b)
	}
	if b := StageBounds(4, 0, 5, 8); b.Low != 0 || b.Up != 0 {
		t.Fatalf("zero slots: %+v", b)
	}
}

// Greedy simulation: assign each task to the slot that frees earliest,
// then check the analytic bounds contain the actual makespan. This is
// the theorem the whole MinEDF sizing rests on.
func TestStageBoundsContainGreedyMakespanProperty(t *testing.T) {
	prop := func(rawDur []uint16, rawK uint8) bool {
		k := int(rawK%16) + 1
		if len(rawDur) == 0 {
			return true
		}
		durs := make([]float64, len(rawDur))
		var sum, max float64
		for i, d := range rawDur {
			durs[i] = float64(d%1000) + 1
			sum += durs[i]
			if durs[i] > max {
				max = durs[i]
			}
		}
		avg := sum / float64(len(durs))
		makespan := greedyMakespan(durs, k)
		b := StageBounds(len(durs), k, avg, max)
		const eps = 1e-9
		return b.Low <= makespan+eps && makespan <= b.Up+eps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func greedyMakespan(durs []float64, k int) float64 {
	slots := make([]float64, k)
	for _, d := range durs {
		// earliest finishing slot
		mi := 0
		for i := 1; i < k; i++ {
			if slots[i] < slots[mi] {
				mi = i
			}
		}
		slots[mi] += d
	}
	var max float64
	for _, s := range slots {
		if s > max {
			max = s
		}
	}
	return max
}

func TestJobBoundsOrdering(t *testing.T) {
	p := profileFor(t)
	b := JobBounds(p, 10, 5)
	if b.Low <= 0 || b.Up < b.Low {
		t.Fatalf("bounds disordered: %+v", b)
	}
	est := Estimate(p, 10, 5)
	if est < b.Low || est > b.Up {
		t.Fatalf("estimate %v outside bounds %+v", est, b)
	}
}

func TestMoreSlotsNeverSlower(t *testing.T) {
	p := profileFor(t)
	prev := Estimate(p, 1, 1)
	for s := 2; s <= 50; s++ {
		cur := Estimate(p, s, s)
		if cur > prev+1e-9 {
			t.Fatalf("estimate increased with more slots at s=%d: %v -> %v", s, prev, cur)
		}
		prev = cur
	}
}

func TestCoeffsEvalMapOnly(t *testing.T) {
	c := Coeffs{A: 10, B: 5, C: 2}
	// no reduces: B term must vanish
	if got := c.Eval(10, 0, 5, 0); got != 10*10/5.0+2 {
		t.Fatalf("map-only eval = %v", got)
	}
}

func TestMinimalSlotsMeetsDeadline(t *testing.T) {
	p := profileFor(t)
	maxM, maxR := 64, 64
	full := Estimate(p, minIntT(maxM, p.NumMaps), minIntT(maxR, p.NumReduces))
	for _, df := range []float64{1.05, 1.5, 2, 3, 10} {
		deadline := full * df
		a := MinimalSlots(p, deadline, maxM, maxR)
		if !a.Feasible {
			t.Fatalf("df=%v: expected feasible, got %+v (full=%v)", df, a, full)
		}
		if got := Estimate(p, a.MapSlots, a.ReduceSlots); got > deadline+1e-9 {
			t.Fatalf("df=%v: allocation %+v misses deadline: %v > %v", df, a, got, deadline)
		}
	}
}

func TestMinimalSlotsIsMinimal(t *testing.T) {
	// Exhaustive check on a small instance: no allocation with fewer
	// total slots meets the deadline.
	p := profileFor(t)
	deadline := Estimate(p, 64, 20) * 2
	a := MinimalSlots(p, deadline, 64, 64)
	if !a.Feasible {
		t.Fatal("expected feasible")
	}
	best := 1 << 30
	for sm := 1; sm <= 64; sm++ {
		for sr := 1; sr <= 20; sr++ {
			if Estimate(p, sm, sr) <= deadline && sm+sr < best {
				best = sm + sr
			}
		}
	}
	if a.Total() != best {
		t.Fatalf("MinimalSlots total %d, exhaustive minimum %d (alloc %+v)", a.Total(), best, a)
	}
}

func TestMinimalSlotsRelaxedDeadlineUsesFewerSlots(t *testing.T) {
	p := profileFor(t)
	full := Estimate(p, 64, 20)
	tight := MinimalSlots(p, full*1.1, 64, 64)
	loose := MinimalSlots(p, full*4, 64, 64)
	if loose.Total() > tight.Total() {
		t.Fatalf("relaxed deadline should not need more slots: tight=%+v loose=%+v", tight, loose)
	}
	if loose.Total() == tight.Total() {
		t.Logf("warning: totals equal (%d); deadline spread may be too small", loose.Total())
	}
}

func TestMinimalSlotsInfeasibleReturnsMax(t *testing.T) {
	p := profileFor(t)
	a := MinimalSlots(p, 0.001, 64, 64)
	if a.Feasible {
		t.Fatal("impossible deadline reported feasible")
	}
	if a.MapSlots != 64 || a.ReduceSlots != 20 {
		t.Fatalf("infeasible should grant clamped max: %+v", a)
	}
}

func TestMinimalSlotsClampsToTaskCounts(t *testing.T) {
	p := profileFor(t) // 100 maps, 20 reduces
	a := MinimalSlots(p, 1e9, 500, 500)
	if a.MapSlots > 100 || a.ReduceSlots > 20 {
		t.Fatalf("allocation exceeds task counts: %+v", a)
	}
}

func TestMinimalSlotsMapOnlyJob(t *testing.T) {
	tpl := &trace.Template{AppName: "m", NumMaps: 50, MapDurations: constSlice(50, 4)}
	p := tpl.Profile()
	a := MinimalSlots(p, 40, 64, 64)
	if a.ReduceSlots != 0 {
		t.Fatalf("map-only job got reduce slots: %+v", a)
	}
	if !a.Feasible {
		t.Fatalf("40s deadline with 50x4s maps should be feasible: %+v", a)
	}
	// need ceil(50*4/40) = 5 map slots
	if got := Estimate(p, a.MapSlots, 0); got > 40 {
		t.Fatalf("allocation misses deadline: %v", got)
	}
}

// Property: MinimalSlots always returns an in-range allocation and, when
// feasible, meets the deadline.
func TestMinimalSlotsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		nm := rng.Intn(200) + 1
		nr := rng.Intn(50)
		tpl := &trace.Template{
			AppName: "r", NumMaps: nm, NumReduces: nr,
			MapDurations: randSlice(nm, 1, 30, rng),
		}
		if nr > 0 {
			tpl.FirstShuffle = randSlice(nr, 1, 10, rng)
			tpl.TypicalShuffle = randSlice(nr, 1, 10, rng)
			tpl.ReduceDurations = randSlice(nr, 1, 10, rng)
		}
		p := tpl.Profile()
		maxM, maxR := rng.Intn(64)+1, rng.Intn(64)+1
		deadline := rng.Float64() * 500
		a := MinimalSlots(p, deadline, maxM, maxR)
		if a.MapSlots < 1 || a.MapSlots > minIntT(maxM, nm) {
			t.Fatalf("trial %d: map slots out of range: %+v", trial, a)
		}
		if nr == 0 && a.ReduceSlots != 0 {
			t.Fatalf("trial %d: reduce slots for map-only job", trial)
		}
		if nr > 0 && (a.ReduceSlots < 1 || a.ReduceSlots > minIntT(maxR, nr)) {
			t.Fatalf("trial %d: reduce slots out of range: %+v", trial, a)
		}
		if a.Feasible && Estimate(p, a.MapSlots, a.ReduceSlots) > deadline+1e-9 {
			t.Fatalf("trial %d: feasible allocation misses deadline", trial)
		}
	}
}

func randSlice(n int, lo, hi float64, rng *rand.Rand) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = lo + rng.Float64()*(hi-lo)
	}
	return s
}

func TestAllocationsOnHyperbolaEquivalent(t *testing.T) {
	// "All integral points on this hyperbola are possible allocations ...
	// which result in meeting the same deadline": walking the hyperbola,
	// estimates stay at or under the deadline.
	p := profileFor(t)
	deadline := Estimate(p, 20, 10) // pick a point, use its estimate as D
	var totals []int
	for sm := 1; sm <= 100; sm++ {
		for sr := 1; sr <= 20; sr++ {
			if Estimate(p, sm, sr) <= deadline {
				totals = append(totals, sm+sr)
				break // smallest sr for this sm
			}
		}
	}
	if len(totals) == 0 {
		t.Fatal("no feasible points found")
	}
	sort.Ints(totals)
	a := MinimalSlots(p, deadline, 100, 20)
	if a.Total() > totals[0] {
		t.Fatalf("Lagrange solution %d beaten by hyperbola scan %d", a.Total(), totals[0])
	}
}

func minIntT(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// StageBounds returns the makespan bounds of a greedy assignment of n
// tasks with the given average and maximum durations onto k slots.
func StageBounds(n, k int, avg, max float64) Bounds {
	if n <= 0 || k <= 0 {
		return Bounds{}
	}
	return Bounds{
		Low: float64(n) * avg / float64(k),
		Up:  float64(n-1)*avg/float64(k) + max,
	}
}

// Estimate returns the midpoint completion-time estimate for an
// allocation — the quantity MinEDF compares against the deadline.
func Estimate(p trace.Profile, mapSlots, reduceSlots int) float64 {
	return JobBounds(p, mapSlots, reduceSlots).Avg()
}

// Total returns MapSlots + ReduceSlots, the quantity MinimalSlots
// minimizes.
func (a Allocation) Total() int { return a.MapSlots + a.ReduceSlots }

// MinimalSlots is MinimalSlotsCoeffs at the midpoint coefficients, as
// MinEDF sizes a job.
func MinimalSlots(p trace.Profile, deadline float64, maxMap, maxReduce int) Allocation {
	return MinimalSlotsCoeffs(p, AvgCoeffs(p), deadline, maxMap, maxReduce)
}

// Avg returns the midpoint of the bounds — "typically ... a good
// approximation of the job completion time" (§V-A).
func (b Bounds) Avg() float64 { return (b.Low + b.Up) / 2 }
