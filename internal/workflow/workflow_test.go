package workflow

import (
	"math"
	"testing"
)

func TestBudgetFractionsAndAmortization(t *testing.T) {
	b := Budget{PropagatorSeconds: 96.5, ContractionSeconds: 3, IOSeconds: 0.5}
	p, c, io := b.Fractions()
	if math.Abs(p-96.5) > 1e-12 || math.Abs(c-3) > 1e-12 || math.Abs(io-0.5) > 1e-12 {
		t.Fatalf("fractions %v %v %v", p, c, io)
	}
	a := b.Amortized()
	if a.ContractionSeconds != 0 {
		t.Fatal("co-scheduling must hide the 3% contraction share")
	}
	if a.PropagatorSeconds != 96.5 || a.IOSeconds != 0.5 {
		t.Fatal("amortization changed other components")
	}
	// Degenerate: contractions exceeding propagators cannot fully hide.
	big := Budget{PropagatorSeconds: 1, ContractionSeconds: 5}
	if got := big.Amortized().ContractionSeconds; got != 4 {
		t.Fatalf("partial amortization wrong: %v", got)
	}
	var zero Budget
	p, c, io = zero.Fractions()
	if p != 0 || c != 0 || io != 0 {
		t.Fatal("zero budget fractions")
	}
}

func TestModelReproducesPaperSplit(t *testing.T) {
	// Section VI: "propagator solves consume about 97% of the execution
	// time, while tensor contraction consumes about 3%"; "I/O takes about
	// 0.5% of our total application time".
	res, err := Model(DefaultModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, c, io := res.Budget.Fractions()
	if p < 95 || p > 98.5 {
		t.Fatalf("propagator share %.2f%%, paper says ~96.5-97%%", p)
	}
	if c < 2 || c > 4 {
		t.Fatalf("contraction share %.2f%%, paper says ~3%%", c)
	}
	if io < 0.2 || io > 1.0 {
		t.Fatalf("I/O share %.2f%%, paper says ~0.5%%", io)
	}
}

func TestModelSustainedNearTwentyPercent(t *testing.T) {
	// With contractions co-scheduled and I/O negligible, the whole
	// application sustains close to the solver's ~20% of peak on small
	// jobs (Section VII).
	res, err := Model(DefaultModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AppSustainedPct < 16 || res.AppSustainedPct > 21 {
		t.Fatalf("application sustained %.1f%% of peak", res.AppSustainedPct)
	}
	if res.SolveSeconds <= 0 || res.JobTFlops <= 0 {
		t.Fatal("model outputs missing")
	}
}

func TestModelErrorsOnImpossibleJob(t *testing.T) {
	cfg := DefaultModelConfig()
	cfg.GPUsPerJob = 7
	if _, err := Model(cfg); err == nil {
		t.Fatal("7-GPU job accepted for 48^3 x 64")
	}
}
