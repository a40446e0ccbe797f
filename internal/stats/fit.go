package stats

import (
	"math"
	"sort"
)

// FitResult pairs a fitted distribution with its Kolmogorov-Smirnov
// goodness-of-fit value against the sample it was fitted to.
type FitResult struct {
	Dist Dist
	KS   float64
}

// FitFamily identifies one parametric family the fitter knows about.
type FitFamily string

// The distribution families available for fitting. The paper's authors
// fit "more than 60 distributions" with StatAssist; we cover the
// families that matter for heavy-tailed task durations, which is enough
// to demonstrate the paper's conclusion (LogNormal best fits the
// Facebook task-duration CDF).
const (
	FamilyLogNormal   FitFamily = "lognormal"
	FamilyExponential FitFamily = "exponential"
	FamilyNormal      FitFamily = "normal"
	FamilyWeibull     FitFamily = "weibull"
	FamilyGamma       FitFamily = "gamma"
	FamilyUniform     FitFamily = "uniform"
	FamilyPareto      FitFamily = "pareto"
)

// AllFamilies lists every supported family in a stable order.
func AllFamilies() []FitFamily {
	return []FitFamily{
		FamilyLogNormal, FamilyExponential, FamilyNormal,
		FamilyWeibull, FamilyGamma, FamilyUniform, FamilyPareto,
	}
}

// Fit estimates the parameters of one family from a sample using maximum
// likelihood where closed-form, otherwise method of moments. It returns
// nil if the sample cannot support the family (e.g. nonpositive values
// for LogNormal).
func Fit(family FitFamily, xs []float64) Dist {
	if len(xs) < 2 {
		return nil
	}
	s := Summarize(xs)
	switch family {
	case FamilyLogNormal:
		// MLE on log-space moments; requires strictly positive data.
		var mu, n float64
		for _, x := range xs {
			if x <= 0 {
				return nil
			}
			mu += math.Log(x)
			n++
		}
		mu /= n
		var ss float64
		for _, x := range xs {
			d := math.Log(x) - mu
			ss += d * d
		}
		sigma := math.Sqrt(ss / n)
		if sigma == 0 {
			return nil
		}
		return LogNormal{Mu: mu, Sigma: sigma}

	case FamilyExponential:
		if s.Mean <= 0 {
			return nil
		}
		return Exponential{MeanV: s.Mean}

	case FamilyNormal:
		if s.Std == 0 {
			return nil
		}
		return Normal{Mu: s.Mean, Sigma: s.Std}

	case FamilyWeibull:
		// Method of moments via the coefficient of variation: solve
		// CV² = Γ(1+2/k)/Γ(1+1/k)² − 1 for k by bisection.
		if s.Mean <= 0 || s.Std == 0 {
			return nil
		}
		cv2 := (s.Std / s.Mean) * (s.Std / s.Mean)
		f := func(k float64) float64 {
			g1 := math.Gamma(1 + 1/k)
			g2 := math.Gamma(1 + 2/k)
			return g2/(g1*g1) - 1 - cv2
		}
		lo, hi := 0.05, 50.0
		if f(lo) < 0 || f(hi) > 0 {
			return nil // CV outside the representable range
		}
		for i := 0; i < 100; i++ {
			mid := (lo + hi) / 2
			if f(mid) > 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		k := (lo + hi) / 2
		lambda := s.Mean / math.Gamma(1+1/k)
		return Weibull{K: k, Lambda: lambda}

	case FamilyGamma:
		if s.Mean <= 0 || s.Std == 0 {
			return nil
		}
		k := (s.Mean / s.Std) * (s.Mean / s.Std)
		theta := s.Std * s.Std / s.Mean
		return Gamma{K: k, Theta: theta}

	case FamilyUniform:
		if s.Max <= s.Min {
			return nil
		}
		return Uniform{A: s.Min, B: s.Max}

	case FamilyPareto:
		// MLE: xm = min, alpha = n / Σ log(x/xm).
		xm := s.Min
		if xm <= 0 {
			return nil
		}
		var sum float64
		for _, x := range xs {
			sum += math.Log(x / xm)
		}
		if sum <= 0 {
			return nil
		}
		return Pareto{Xm: xm, Alpha: float64(len(xs)) / sum}
	}
	return nil
}

// FitAll fits every supported family to the sample and returns the
// results sorted by ascending KS statistic (best fit first). Families
// the sample cannot support are omitted.
func FitAll(xs []float64) []FitResult {
	var out []FitResult
	for _, fam := range AllFamilies() {
		d := Fit(fam, xs)
		if d == nil {
			continue
		}
		ks := KolmogorovSmirnov(xs, d)
		if math.IsNaN(ks) {
			continue
		}
		out = append(out, FitResult{Dist: d, KS: ks})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].KS < out[j].KS })
	return out
}
