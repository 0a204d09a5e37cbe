package fit

import (
	"math"
	"math/rand"
	"testing"
)

func TestSingleExpExactRecovery(t *testing.T) {
	truth := []float64{3.2, 0.45}
	xs := make([]float64, 12)
	ys := make([]float64, 12)
	sig := make([]float64, 12)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = SingleExp(truth, xs[i])
		sig[i] = 0.01
	}
	prob, err := NewUncorrelated(SingleExp, xs, ys, sig)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prob.Solve([]float64{1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	for i, p := range res.Params {
		if math.Abs(p-truth[i]) > 1e-6 {
			t.Fatalf("param %d = %v, want %v", i, p, truth[i])
		}
	}
	if res.Chi2 > 1e-10 {
		t.Fatalf("chi2 = %v on exact data", res.Chi2)
	}
}

func TestNoisyFitChi2Reasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := []float64{2.0, 0.3}
	n := 20
	xs := make([]float64, n)
	ys := make([]float64, n)
	sig := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		sig[i] = 0.02 * SingleExp(truth, xs[i])
		ys[i] = SingleExp(truth, xs[i]) + sig[i]*rng.NormFloat64()
	}
	prob, _ := NewUncorrelated(SingleExp, xs, ys, sig)
	res, err := prob.Solve([]float64{1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chi2PerDOF() > 3 {
		t.Fatalf("chi2/dof = %v", res.Chi2PerDOF())
	}
	if math.Abs(res.Params[1]-truth[1]) > 0.05 {
		t.Fatalf("mass = %v, want %v", res.Params[1], truth[1])
	}
}

func TestGeffModelPlateauRecovery(t *testing.T) {
	// Synthetic Fig. 1: plateau 1.271 with excited contamination.
	truth := []float64{1.271, -0.25, 0.5}
	n := 14
	xs := make([]float64, n)
	ys := make([]float64, n)
	sig := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range xs {
		xs[i] = float64(i + 1)
		sig[i] = 0.004
		ys[i] = GeffModel(truth, xs[i]) + sig[i]*rng.NormFloat64()
	}
	prob, _ := NewUncorrelated(GeffModel, xs, ys, sig)
	res, err := prob.Solve([]float64{1.2, -0.1, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-1.271) > 0.01 {
		t.Fatalf("gA = %v", res.Params[0])
	}
	// ExcitedPart + plateau = full model.
	for _, x := range xs {
		full := GeffModel(res.Params, x)
		if math.Abs(full-res.Params[0]-ExcitedPart(res.Params, x)) > 1e-12 {
			t.Fatal("ExcitedPart inconsistent with GeffModel")
		}
	}
}

func TestTradRatioModelSymmetry(t *testing.T) {
	m := TradRatioModel(10)
	p := []float64{1.27, -0.3, 0.5}
	for tau := 0.0; tau <= 5; tau++ {
		if math.Abs(m(p, tau)-m(p, 10-tau)) > 1e-12 {
			t.Fatalf("ratio not symmetric about T/2 at tau=%v", tau)
		}
	}
	// Contamination is largest at the endpoints.
	if math.Abs(m(p, 0)-p[0]) < math.Abs(m(p, 5)-p[0]) {
		t.Fatal("contamination should peak at endpoints")
	}
}

func TestTwoExpReducesToSingleExp(t *testing.T) {
	p := []float64{2, 0.4, 0, 1}
	for x := 0.0; x < 5; x++ {
		if math.Abs(TwoExp(p, x)-SingleExp(p[:2], x)) > 1e-14 {
			t.Fatal("TwoExp with zero amplitude differs from SingleExp")
		}
	}
}

func TestRejectsBadInputs(t *testing.T) {
	if _, err := NewUncorrelated(SingleExp, []float64{1}, []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewUncorrelated(SingleExp, []float64{1}, []float64{1}, []float64{0}); err == nil {
		t.Fatal("zero sigma accepted")
	}
	prob, _ := NewUncorrelated(SingleExp, []float64{1}, []float64{1}, []float64{0.1})
	if _, err := prob.Solve([]float64{1, 1, 1, 1}); err == nil {
		t.Fatal("under-determined fit accepted")
	}
}

func TestChi2PerDOFEdgeCases(t *testing.T) {
	r := Result{Chi2: 5, DOF: 0}
	if !math.IsNaN(r.Chi2PerDOF()) {
		t.Fatal("zero dof must be NaN")
	}
}

// SingleExp is A * exp(-m x) with params = [A, m].
func SingleExp(p []float64, x float64) float64 { return p[0] * math.Exp(-p[1]*x) }

// TwoExp is A0 exp(-m0 x) (1 + A1 exp(-dE x)) with params = [A0, m0, A1, dE]
// and dE > 0 enforced softly by |dE|.
func TwoExp(p []float64, x float64) float64 {
	return p[0] * math.Exp(-p[1]*x) * (1 + p[2]*math.Exp(-math.Abs(p[3])*x))
}
