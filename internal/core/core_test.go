package core

import (
	"context"
	"math"
	"testing"
)

func TestRunSyntheticHeadlineNumbers(t *testing.T) {
	res, err := RunSynthetic(784, 10, 21)
	if err != nil {
		t.Fatal(err)
	}
	// ~1% determination of gA (the paper's headline precision).
	if res.FH.Precision() > 1.5 {
		t.Fatalf("FH precision %.2f%%, paper achieves ~1%%", res.FH.Precision())
	}
	// FH beats traditional despite 10x fewer samples.
	if res.FH.Err >= res.Trad.Err {
		t.Fatalf("FH error %v not below traditional %v", res.FH.Err, res.Trad.Err)
	}
	// The effective statistical speed-up is an order of magnitude or more.
	if res.SpeedupFactor() < 10 {
		t.Fatalf("speed-up factor %.1f, expected >= 10", res.SpeedupFactor())
	}
	// Lifetime lands in the experimentally relevant window.
	if res.TauSeconds < 820 || res.TauSeconds > 950 {
		t.Fatalf("tau_n = %v s", res.TauSeconds)
	}
	if res.TauErr <= 0 {
		t.Fatal("no lifetime uncertainty")
	}
	if len(res.TradPoints) == 0 {
		t.Fatal("no traditional points for the figure")
	}
	// These are the numbers examples/neutronlifetime prints, fixed to the
	// last bit (ROADMAP 6e) so kernel and layout work cannot drift the
	// science while the intermediate checks above stay green.
	for _, p := range []struct {
		name string
		got  float64
		bits uint64
	}{
		{"gA", res.FH.GA, 0x3ff42d583ce861de},
		{"gA err", res.FH.Err, 0x3f7abb958a703930},
		{"tau_n", res.TauSeconds, 0x408c01c52beee079},
		{"tau_n err", res.TauErr, 0x401eaf326b42502b},
	} {
		if math.Float64bits(p.got) != p.bits {
			t.Errorf("%s = %.17g (bits %#x), pinned %.17g (bits %#x)",
				p.name, p.got, math.Float64bits(p.got), math.Float64frombits(p.bits), p.bits)
		}
	}
}

func TestRunSyntheticDeterministic(t *testing.T) {
	a, err := RunSynthetic(120, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSynthetic(120, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.FH.GA != b.FH.GA || a.Trad.GA != b.Trad.GA {
		t.Fatal("synthetic campaign not deterministic")
	}
}

func TestRunRealProducesFiniteCurves(t *testing.T) {
	cfg := DefaultRealConfig()
	cfg.Dims = [4]int{2, 2, 2, 6}
	cfg.NConfigs = 3
	cfg.ThermSweeps = 3
	cfg.GapSweeps = 1
	res, err := RunReal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.C2) != 3 || len(res.CFH) != 3 {
		t.Fatalf("correlators: %d/%d", len(res.C2), len(res.CFH))
	}
	if res.SolvesPerConfig != 24 {
		t.Fatalf("solves per config %d; FH costs one extra propagator (12+12)", res.SolvesPerConfig)
	}
	if len(res.Geff) == 0 || len(res.Geff) != len(res.GeffErr) {
		t.Fatal("g_eff curve missing")
	}
	for i, v := range res.Geff {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("g_eff[%d] = %v", i, v)
		}
	}
	// Proton two-point positive in the physical window.
	for _, c2 := range res.C2 {
		for tt := 1; tt <= 2; tt++ {
			if c2[tt] <= 0 {
				t.Fatalf("C2(%d) = %g", tt, c2[tt])
			}
		}
	}
}

// TestRunRealRejectsSingleConfiguration: a one-configuration spec used to
// run all 24 solves and then panic in the jackknife; Run must refuse it
// up front at every option.
func TestRunRealRejectsSingleConfiguration(t *testing.T) {
	cfg := DefaultRealConfig()
	cfg.NConfigs = 1
	if _, err := RunReal(cfg); err == nil {
		t.Error("RunReal accepted NConfigs = 1")
	}
	if _, _, err := Run(context.Background(), cfg, RunOptions{Workers: 2}); err == nil {
		t.Error("Run accepted NConfigs = 1")
	}
}
