package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitLogNormalRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	truth := LogNormal{Mu: 9.9511, Sigma: 1.6764} // the paper's Facebook map fit
	xs := SampleN(truth, 20000, rng)
	d := Fit(FamilyLogNormal, xs)
	ln, ok := d.(LogNormal)
	if !ok {
		t.Fatalf("fit returned %T", d)
	}
	if math.Abs(ln.Mu-truth.Mu) > 0.05 || math.Abs(ln.Sigma-truth.Sigma) > 0.05 {
		t.Fatalf("recovered LN(%.4f, %.4f), want LN(%.4f, %.4f)", ln.Mu, ln.Sigma, truth.Mu, truth.Sigma)
	}
}

func TestFitExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	xs := SampleN(Exponential{MeanV: 42}, 20000, rng)
	d := Fit(FamilyExponential, xs).(Exponential)
	if math.Abs(d.MeanV-42)/42 > 0.03 {
		t.Fatalf("fit mean = %f, want 42", d.MeanV)
	}
}

func TestFitNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	xs := SampleN(Normal{Mu: 100, Sigma: 7}, 20000, rng)
	d := Fit(FamilyNormal, xs).(Normal)
	if math.Abs(d.Mu-100) > 0.5 || math.Abs(d.Sigma-7) > 0.5 {
		t.Fatalf("fit Normal(%.2f, %.2f)", d.Mu, d.Sigma)
	}
}

func TestFitWeibull(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	truth := Weibull{K: 1.8, Lambda: 25}
	xs := SampleN(truth, 20000, rng)
	d := Fit(FamilyWeibull, xs)
	w, ok := d.(Weibull)
	if !ok {
		t.Fatalf("fit returned %T", d)
	}
	if math.Abs(w.K-truth.K)/truth.K > 0.1 || math.Abs(w.Lambda-truth.Lambda)/truth.Lambda > 0.1 {
		t.Fatalf("fit Weibull(%.2f, %.2f), want (%.2f, %.2f)", w.K, w.Lambda, truth.K, truth.Lambda)
	}
}

func TestFitGamma(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	truth := Gamma{K: 3, Theta: 5}
	xs := SampleN(truth, 20000, rng)
	g := Fit(FamilyGamma, xs).(Gamma)
	if math.Abs(g.K-truth.K)/truth.K > 0.1 || math.Abs(g.Theta-truth.Theta)/truth.Theta > 0.1 {
		t.Fatalf("fit Gamma(%.2f, %.2f)", g.K, g.Theta)
	}
}

func TestFitPareto(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	truth := Pareto{Xm: 2, Alpha: 2.5}
	xs := SampleN(truth, 20000, rng)
	p := Fit(FamilyPareto, xs).(Pareto)
	if math.Abs(p.Alpha-truth.Alpha)/truth.Alpha > 0.1 {
		t.Fatalf("fit Pareto alpha = %.3f, want %.3f", p.Alpha, truth.Alpha)
	}
}

func TestFitRejectsDegenerateSamples(t *testing.T) {
	if Fit(FamilyLogNormal, []float64{1}) != nil {
		t.Fatal("single point should not fit")
	}
	if Fit(FamilyLogNormal, []float64{-1, 2, 3}) != nil {
		t.Fatal("nonpositive data should not fit LogNormal")
	}
	if Fit(FamilyNormal, []float64{5, 5, 5}) != nil {
		t.Fatal("zero-variance data should not fit Normal")
	}
	if Fit(FamilyUniform, []float64{5, 5}) != nil {
		t.Fatal("zero-range data should not fit Uniform")
	}
	if Fit(FamilyPareto, []float64{0, 1}) != nil {
		t.Fatal("nonpositive min should not fit Pareto")
	}
}

// The paper's §V-C claim: for Facebook-like (LogNormal) task durations,
// LogNormal is the best fit among the candidate families by KS value.
func TestLogNormalWinsOnFacebookLikeData(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	xs := SampleN(LogNormal{Mu: 9.9511, Sigma: 1.6764}, 8000, rng)
	all := FitAll(xs)
	if len(all) == 0 {
		t.Fatal("no fit produced")
	}
	best := all[0]
	if _, ok := best.Dist.(LogNormal); !ok {
		t.Fatalf("best fit is %v (KS=%.4f), want LogNormal", best.Dist, best.KS)
	}
	if best.KS > 0.05 {
		t.Fatalf("best KS %.4f too large", best.KS)
	}
}

func TestFitAllSortedByKS(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	xs := SampleN(Gamma{K: 2, Theta: 3}, 3000, rng)
	res := FitAll(xs)
	if len(res) < 4 {
		t.Fatalf("too few families fitted: %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].KS < res[i-1].KS {
			t.Fatal("FitAll results not sorted by KS")
		}
	}
}

func TestFitAllEmptySample(t *testing.T) {
	if all := FitAll(nil); len(all) != 0 {
		t.Fatalf("empty sample fitted %d families, want none", len(all))
	}
}
