package stats

import (
	"fmt"
	"math"
	"sort"
)

// ECDF is the empirical cumulative distribution function of a sample.
// It is the representation behind Figure 3 of the paper (duration CDFs
// of map/shuffle/reduce tasks under different slot allocations).
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from a sample (which it copies and
// sorts). An empty sample yields a CDF that is 0 everywhere.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns the fraction of sample points <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Min and Max return the sample range; NaN when empty.
func (e *ECDF) Min() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[0]
}

// Max returns the largest sample point; NaN when empty.
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[len(e.sorted)-1]
}

// Points renders the CDF as n evenly spaced (x, F(x)) pairs across the
// sample range — the series plotted in Figure 3.
func (e *ECDF) Points(n int) []Point {
	if len(e.sorted) == 0 || n <= 0 {
		return nil
	}
	lo, hi := e.Min(), e.Max()
	if n == 1 || hi == lo {
		return []Point{{hi, 1}}
	}
	pts := make([]Point, n)
	for i := range pts {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts[i] = Point{X: x, Y: e.At(x)}
	}
	return pts
}

// Point is one (x, y) coordinate of a plotted series.
type Point struct{ X, Y float64 }

// Histogram is a fixed-width binning of a sample over [Lo, Hi). Values
// outside the range are clamped into the edge bins, so Total always
// equals the sample size; this keeps KL divergence comparisons between
// two executions defined over a common support.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram bins xs into `bins` equal-width bins spanning [lo, hi).
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram range [%g,%g)", lo, hi))
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add inserts one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.Total++
}

// Probs returns the normalized bin probabilities. An empty histogram
// returns all zeros.
func (h *Histogram) Probs() []float64 {
	p := make([]float64, len(h.Counts))
	if h.Total == 0 {
		return p
	}
	for i, c := range h.Counts {
		p[i] = float64(c) / float64(h.Total)
	}
	return p
}

// CommonRange returns a [lo, hi) range covering both samples, padded
// slightly so the maximum falls inside the last bin.
func CommonRange(a, b []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, xs := range [][]float64{a, b} {
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	if math.IsInf(lo, 1) { // both empty
		return 0, 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi + (hi-lo)*1e-9
}
