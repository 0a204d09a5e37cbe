package workflow

import (
	"context"
	"math"
	"testing"
)

func TestRealPipelineEndToEnd(t *testing.T) {
	cfg := DefaultRealConfig()
	cfg.Dims = [4]int{2, 2, 2, 4}
	cfg.Params.Ls = 4
	cfg.NConfigs = 2
	cfg.ThermSweeps = 3
	cfg.GapSweeps = 1
	res, rep, err := RunReal(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("inline run returned a pool report: %+v", rep)
	}
	if len(res.Pion) != 2 || len(res.Proton) != 2 {
		t.Fatalf("correlators missing: %d/%d", len(res.Pion), len(res.Proton))
	}
	// 12 solves per config.
	if res.Solves != 24 {
		t.Fatalf("solves = %d", res.Solves)
	}
	if res.Iterations == 0 || res.Flops == 0 {
		t.Fatal("no solver accounting")
	}
	if res.IOBytes == 0 {
		t.Fatal("no I/O recorded")
	}
	// Pion correlator positive on every configuration.
	for _, c := range res.Pion {
		for tt, v := range c {
			if v <= 0 {
				t.Fatalf("pion correlator not positive at t=%d: %g", tt, v)
			}
		}
	}
	// Propagators dominate even at laptop scale.
	p, _, _ := res.Budget.Fractions()
	if p < 50 {
		t.Fatalf("propagator share %.1f%%; solves must dominate", p)
	}
}

// The pipeline must produce the same correlators bit for bit and the
// same accounting exactly whoever executes its stages - the calling
// goroutine (workers 0) or the job runtime at any width; only the
// measured Budget (wall-clock timings) may differ.
func TestRunRealMatchesAtEveryWorkerCount(t *testing.T) {
	cfg := DefaultRealConfig()
	cfg.Dims = [4]int{2, 2, 2, 4}
	cfg.Params.Ls = 4
	cfg.NConfigs = 3
	cfg.ThermSweeps = 3
	cfg.GapSweeps = 1

	var ref *RealResult
	for _, workers := range []int{0, 1, 3} {
		got, rep, err := RunReal(context.Background(), cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Budget.Total() <= 0 {
			t.Fatalf("workers=%d: empty budget", workers)
		}
		if workers == 0 {
			ref = got
			continue
		}
		if rep == nil || rep.Succeeded != 3*cfg.NConfigs || rep.Failed != 0 {
			t.Fatalf("workers=%d report: %+v", workers, rep)
		}
		if got.Solves != ref.Solves || got.Iterations != ref.Iterations ||
			got.Flops != ref.Flops || got.IOBytes != ref.IOBytes {
			t.Fatalf("workers=%d accounting differs: %+v vs %+v", workers, got, ref)
		}
		if len(got.Pion) != len(ref.Pion) || len(got.Proton) != len(ref.Proton) {
			t.Fatalf("workers=%d correlator counts differ", workers)
		}
		for i := range ref.Pion {
			for tt := range ref.Pion[i] {
				if got.Pion[i][tt] != ref.Pion[i][tt] {
					t.Fatalf("workers=%d pion differs at cfg %d t=%d", workers, i, tt)
				}
			}
			for tt := range ref.Proton[i] {
				if got.Proton[i][tt] != ref.Proton[i][tt] {
					t.Fatalf("workers=%d proton differs at cfg %d t=%d", workers, i, tt)
				}
			}
		}
	}
}

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
