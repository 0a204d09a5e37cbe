package contract

import (
	"context"
	"math"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// TestVectorChargePlateau is the charge-conservation sanity check of the
// whole FH machinery: replacing the axial insertion gamma_z gamma_5 with
// the temporal vector current gamma_t measures the isovector vector
// charge of the proton, which is exactly 1 for the conserved current.
// The local current used here renormalizes with Z_V != 1 (about 0.7 at
// this heavy quark mass and coarse free-field setup), but the effective
// charge must be positive and form a plateau - unlike the axial channel,
// there is no strong excited-state slope in the free theory.
func TestVectorChargePlateau(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 12)
	cfg := gauge.NewUnit(g)
	cfg.FlipTimeBoundary()
	qs, p := solveProp(t, cfg, 0.2)
	fh, err := qs.FHPropagatorCtx(context.Background(), p, linalg.Gamma(3))
	if err != nil {
		t.Fatal(err)
	}
	c2 := Real(Proton2pt(p, p, 0))
	c3 := Real(ProtonFH3pt(p, p, fh, fh, 0))
	gv := EffectiveGA(c3, c2)

	lo, hi := gv[2], gv[2]
	for tt := 2; tt <= 5; tt++ {
		v := gv[tt]
		if v < 0.4 || v > 1.1 {
			t.Fatalf("g_V,eff(%d) = %v outside the plateau window", tt, v)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo > 1.35 {
		t.Fatalf("vector charge not plateauing: spread %v..%v", lo, hi)
	}
}

// TestScalarAndTensorChargesRun exercises the FH machinery with the other
// isovector currents of the production program: the scalar charge gS
// (Gamma = 1) and the tensor charge gT (Gamma = sigma_xy). Both must
// produce finite, non-vanishing three-point functions through the
// identical pipeline.
func TestScalarAndTensorChargesRun(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 6)
	cfg := gauge.NewWeak(g, 91, 0.2)
	cfg.FlipTimeBoundary()
	qs, p := solveProp(t, cfg, 0.3)
	for name, gamma := range map[string]linalg.SpinMatrix{
		"scalar": linalg.SpinIdentity(),
		"tensor": linalg.TensorGamma(),
	} {
		fh, err := qs.FHPropagatorCtx(context.Background(), p, gamma)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c3 := ProtonFH3pt(p, p, fh, fh, 0)
		finite, nonzero := true, false
		for _, v := range c3 {
			if math.IsNaN(real(v)) || math.IsInf(real(v), 0) {
				finite = false
			}
			if real(v)*real(v)+imag(v)*imag(v) > 1e-20 {
				nonzero = true
			}
		}
		if !finite || !nonzero {
			t.Fatalf("%s charge 3pt degenerate: finite=%v nonzero=%v", name, finite, nonzero)
		}
	}
}
