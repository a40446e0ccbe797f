package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The quantile tests check each distribution's CDF, and its sampler,
// against quantiles derived independently of the code under test: by
// hand, from a closed-form inverse, or (for Gamma, which has none) from
// a published value.

// invertCDF returns the least x with d.CDF(x) >= p, to about 1e-12
// relative, by bisection of the CDF.
func invertCDF(d Dist, p float64) float64 {
	lo, hi := -1.0, 1.0
	for d.CDF(lo) >= p {
		lo *= 2
	}
	for d.CDF(hi) < p {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-12*math.Max(1, math.Abs(hi)); i++ {
		if mid := (lo + hi) / 2; d.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// z returns the standard normal quantile at p.
func z(p float64) float64 { return math.Sqrt2 * math.Erfinv(2*p-1) }

// Inverting each CDF lands on the quantile derived by hand.
func TestDistQuantileClosedForms(t *testing.T) {
	cases := []struct {
		d    Dist
		p, x float64
		tol  float64
	}{
		{Constant{5}, 0.3, 5, 1e-9},
		{Uniform{0, 10}, 0.25, 2.5, 1e-9},
		{Exponential{MeanV: 2}, 0.5, 2 * math.Ln2, 1e-9},
		{Normal{Mu: 0, Sigma: 1}, 0.5, 0, 1e-9},
		{Normal{Mu: 0, Sigma: 1}, 0.975, 1.959964, 1e-5},
		{LogNormal{Mu: 0, Sigma: 1}, 0.5, 1, 1e-9},
		{Weibull{K: 1, Lambda: 3}, 0.5, 3 * math.Ln2, 1e-9},
		{Pareto{Xm: 1, Alpha: 2}, 0.75, 2, 1e-9},
		{Shifted{Base: Uniform{0, 10}, Shift: 5}, 0.5, 10, 1e-9},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/p=%g", c.d, c.p), func(t *testing.T) {
			if got := invertCDF(c.d, c.p); math.Abs(got-c.x) > c.tol {
				t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.x)
			}
		})
	}
}

// Each CDF maps its distribution's closed-form quantile back to p.
func TestDistQuantileInvertsCDF(t *testing.T) {
	cases := []struct {
		d Dist
		q func(p float64) float64
	}{
		{Uniform{2, 9}, func(p float64) float64 { return 2 + 7*p }},
		{Exponential{MeanV: 4}, func(p float64) float64 { return -4 * math.Log1p(-p) }},
		{Normal{Mu: 10, Sigma: 3}, func(p float64) float64 { return 10 + 3*z(p) }},
		{LogNormal{Mu: 1, Sigma: 0.6}, func(p float64) float64 { return math.Exp(1 + 0.6*z(p)) }},
		{Weibull{K: 1.7, Lambda: 5}, func(p float64) float64 { return 5 * math.Pow(-math.Log1p(-p), 1/1.7) }},
		{Pareto{Xm: 1, Alpha: 2.5}, func(p float64) float64 { return math.Pow(1-p, -1/2.5) }},
	}
	for _, c := range cases {
		t.Run(c.d.String(), func(t *testing.T) {
			for _, p := range []float64{0.05, 0.25, 0.5, 0.9, 0.99} {
				if back := c.d.CDF(c.q(p)); math.Abs(back-p) > 1e-9 {
					t.Errorf("CDF(quantile(%v)) = %v", p, back)
				}
			}
		})
	}
}

// Gamma has no closed-form quantile: Gamma(k=3, θ=2) is the chi-square
// distribution with 6 degrees of freedom, whose median is 5.348120627.
func TestDistQuantileGammaBisection(t *testing.T) {
	if x := invertCDF(Gamma{K: 3, Theta: 2}, 0.5); math.Abs(x-5.348120627) > 1e-6 {
		t.Fatalf("gamma median %v, want 5.348120627", x)
	}
}

// The sampler's empirical quantiles match the analytic ones.
func TestDistQuantileMatchesSampleQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := LogNormal{Mu: 2, Sigma: 0.8}
	sorted := SampleN(d, 50000, rng)
	sort.Float64s(sorted)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		analytic := math.Exp(d.Mu + d.Sigma*z(p))
		empirical := Quantile(sorted, p)
		if math.Abs(analytic-empirical)/analytic > 0.05 {
			t.Errorf("p=%v: analytic %v vs empirical %v", p, analytic, empirical)
		}
	}
}
