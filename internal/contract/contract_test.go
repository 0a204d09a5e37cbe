package contract

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/prop"
	"femtoverse/internal/solver"
)

func solveProp(t testing.TB, cfg *gauge.Field, mass float64) (*prop.QuarkSolver, *prop.Propagator) {
	t.Helper()
	m, err := dirac.NewMobius(cfg, dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: mass})
	if err != nil {
		t.Fatal(err)
	}
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		t.Fatal(err)
	}
	qs := prop.NewQuarkSolver(eo, solver.Params{Tol: 1e-9, Precision: solver.Single})
	p, err := qs.ComputePoint([4]int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	return qs, p
}

func TestPionCorrelatorPositiveAndDecaying(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 8)
	cfg := gauge.NewUnit(g)
	cfg.FlipTimeBoundary()
	_, p := solveProp(t, cfg, 0.2)
	c := Pion2pt(p, 0)
	if len(c) != 8 {
		t.Fatalf("length %d", len(c))
	}
	for t1, v := range c {
		if v <= 0 {
			t.Fatalf("C(%d) = %g, not positive", t1, v)
		}
	}
	// Decay towards the midpoint starting at t = 1 (t = 0 carries the
	// domain-wall contact term and is excluded, as in any real analysis).
	for t1 := 1; t1 < 3; t1++ {
		if c[t1+1] >= c[t1] {
			t.Fatalf("not decaying at t=%d: %g -> %g", t1, c[t1], c[t1+1])
		}
	}
	// Approximate time-reflection symmetry of the free pion.
	for t1 := 1; t1 < 4; t1++ {
		a, b := c[t1], c[8-t1]
		if math.Abs(a-b) > 0.05*(a+b) {
			t.Fatalf("reflection asymmetry at t=%d: %g vs %g", t1, a, b)
		}
	}
}

func TestPionCorrelatorGaugeInvariant(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewWeak(g, 13, 0.25)
	cfg.FlipTimeBoundary()
	_, p1 := solveProp(t, cfg, 0.25)
	c1 := Pion2pt(p1, 0)

	omega := gauge.RandomGaugeRotation(g, 14)
	cfg2 := cfg.Clone()
	if err := cfg2.GaugeTransform(omega); err != nil {
		t.Fatal(err)
	}
	_, p2 := solveProp(t, cfg2, 0.25)
	c2 := Pion2pt(p2, 0)
	for i := range c1 {
		if math.Abs(c1[i]-c2[i]) > 1e-6*(math.Abs(c1[i])+1e-30) {
			t.Fatalf("pion correlator not gauge invariant at t=%d: %g vs %g", i, c1[i], c2[i])
		}
	}
}

func TestProtonCorrelatorFreeFieldBehaviour(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 8)
	cfg := gauge.NewUnit(g)
	cfg.FlipTimeBoundary()
	_, p := solveProp(t, cfg, 0.2)
	c := Proton2pt(p, p, 0)
	re := Real(c)
	// Positive-parity projected proton: positive and decaying from t = 1
	// (t = 0 carries the domain-wall contact term).
	for t1 := 1; t1 < 4; t1++ {
		if re[t1] <= 0 {
			t.Fatalf("C(%d) = %g not positive", t1, re[t1])
		}
	}
	for t1 := 1; t1 < 3; t1++ {
		if re[t1+1] >= re[t1] {
			t.Fatalf("not decaying at t=%d", t1)
		}
	}
	// The free proton falls roughly like the cube of the free quark
	// (three propagators), so it must fall faster than the pion (two).
	pi := Pion2pt(p, 0)
	ratioP := re[3] / re[2]
	ratioPi := pi[3] / pi[2]
	if ratioP >= ratioPi {
		t.Fatalf("proton (%g) should decay faster than pion (%g)", ratioP, ratioPi)
	}
}

func TestProtonCorrelatorGaugeInvariant(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewWeak(g, 15, 0.25)
	cfg.FlipTimeBoundary()
	_, p1 := solveProp(t, cfg, 0.3)
	c1 := Proton2pt(p1, p1, 0)

	omega := gauge.RandomGaugeRotation(g, 16)
	cfg2 := cfg.Clone()
	if err := cfg2.GaugeTransform(omega); err != nil {
		t.Fatal(err)
	}
	_, p2 := solveProp(t, cfg2, 0.3)
	c2 := Proton2pt(p2, p2, 0)
	for i := range c1 {
		if cmplx.Abs(c1[i]-c2[i]) > 1e-6*(cmplx.Abs(c1[i])+1e-30) {
			t.Fatalf("proton correlator not gauge invariant at t=%d: %v vs %v", i, c1[i], c2[i])
		}
	}
}

func TestFH3ptLinearAndZero(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewWeak(g, 17, 0.2)
	cfg.FlipTimeBoundary()
	qs, p := solveProp(t, cfg, 0.3)
	zero := prop.NewPropagator(g)
	c := ProtonFH3pt(p, p, zero, zero, 0)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("zero FH propagators gave C3(%d) = %v", i, v)
		}
	}
	fh, err := qs.FHPropagatorCtx(context.Background(), p, linalg.AxialGamma())
	if err != nil {
		t.Fatal(err)
	}
	c3 := ProtonFH3pt(p, p, fh, fh, 0)
	nonzero := false
	for _, v := range c3 {
		if cmplx.Abs(v) > 1e-12 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("axial FH three-point function vanished identically")
	}
}

func TestEffectiveMassOfPureExponential(t *testing.T) {
	c := make([]float64, 10)
	m := 0.7
	for i := range c {
		c[i] = 3.5 * math.Exp(-m*float64(i))
	}
	eff := EffectiveMass(c)
	for i, v := range eff {
		if math.Abs(v-m) > 1e-12 {
			t.Fatalf("m_eff(%d) = %g, want %g", i, v, m)
		}
	}
}

func TestEffectiveMassHandlesSignFlip(t *testing.T) {
	eff := EffectiveMass([]float64{1, -1, 1})
	if !math.IsNaN(eff[0]) || !math.IsNaN(eff[1]) {
		t.Fatal("non-positive ratio must give NaN")
	}
}

func TestEffectiveGARecoversLinearSlope(t *testing.T) {
	// If C3(t)/C2(t) = gA*t + const exactly, g_eff must equal gA at all t.
	ga := 1.271
	tExt := 12
	c2 := make([]float64, tExt)
	c3 := make([]float64, tExt)
	for i := 0; i < tExt; i++ {
		c2[i] = 5 * math.Exp(-0.5*float64(i))
		c3[i] = (ga*float64(i) + 0.3) * c2[i]
	}
	eff := EffectiveGA(c3, c2)
	for i, v := range eff {
		if math.Abs(v-ga) > 1e-12 {
			t.Fatalf("g_eff(%d) = %g, want %g", i, v, ga)
		}
	}
}
