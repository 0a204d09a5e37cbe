package prop

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/solver"
)

func perturbedSetup(t *testing.T) (*dirac.Mobius, *QuarkSolver) {
	t.Helper()
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewWeak(g, 81, 0.25)
	cfg.FlipTimeBoundary()
	m, err := dirac.NewMobius(cfg, dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, NewQuarkSolver(eo, solver.Params{Tol: 1e-11, Precision: solver.Double})
}

func TestPerturbedOperatorDaggerIsAdjoint(t *testing.T) {
	m, _ := perturbedSetup(t)
	op := NewPerturbedMobius(m, 0.37, linalg.AxialGamma())
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, op.Size())
	y := make([]complex128, op.Size())
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dy := make([]complex128, op.Size())
	op.Apply(dy, y)
	ddx := make([]complex128, op.Size())
	op.ApplyDagger(ddx, x)
	lhs := linalg.Dot(x, dy)
	rhs := linalg.Dot(ddx, y)
	if cmplx.Abs(lhs-rhs) > 1e-9*(1+cmplx.Abs(lhs)) {
		t.Fatalf("perturbed adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestPerturbedReducesToMobiusAtZeroLambda(t *testing.T) {
	m, qs := perturbedSetup(t)
	origin := [4]int{0, 0, 0, 0}
	p0, err := ComputePerturbed(m, 0, linalg.AxialGamma(), origin,
		solver.Params{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	base, err := qs.ComputePoint(origin)
	if err != nil {
		t.Fatal(err)
	}
	worst, scale := 0.0, 0.0
	for j := 0; j < NComp; j++ {
		for i := range base.Col[j] {
			if d := cmplx.Abs(p0.Col[j][i] - base.Col[j][i]); d > worst {
				worst = d
			}
			if s := cmplx.Abs(base.Col[j][i]); s > scale {
				scale = s
			}
		}
	}
	if worst > 1e-8*scale {
		t.Fatalf("lambda = 0 propagator differs by %g (scale %g)", worst, scale)
	}
}

// TestFeynmanHellmannTheorem is the sharpest validation of the paper's
// algorithm: the finite-difference derivative of the propagator through
// *real solves of the perturbed operator* must equal the sequential-source
// FH propagator, component by component:
//
//	[S4(+l) - S4(-l)] / 2l = S4 Gamma S4 + O(l^2).
func TestFeynmanHellmannTheorem(t *testing.T) {
	m, qs := perturbedSetup(t)
	origin := [4]int{0, 0, 0, 0}
	gamma := linalg.AxialGamma()
	par := solver.Params{Tol: 1e-11}

	base, err := qs.ComputePoint(origin)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := qs.FHPropagatorCtx(context.Background(), base, gamma)
	if err != nil {
		t.Fatal(err)
	}

	const lam = 1e-4
	plus, err := ComputePerturbed(m, +lam, gamma, origin, par)
	if err != nil {
		t.Fatal(err)
	}
	minus, err := ComputePerturbed(m, -lam, gamma, origin, par)
	if err != nil {
		t.Fatal(err)
	}

	worst, scale := 0.0, 0.0
	for j := 0; j < NComp; j++ {
		for i := range fh.Col[j] {
			fd := (plus.Col[j][i] - minus.Col[j][i]) / complex(2*lam, 0)
			if d := cmplx.Abs(fd - fh.Col[j][i]); d > worst {
				worst = d
			}
			if s := cmplx.Abs(fh.Col[j][i]); s > scale {
				scale = s
			}
		}
	}
	if scale == 0 {
		t.Fatal("degenerate FH propagator")
	}
	// O(lam^2) curvature plus solver-residual amplification 1/lam.
	tol := math.Max(1e-4*scale, 1e-6)
	if worst > tol {
		t.Fatalf("Feynman-Hellmann theorem violated: worst %g vs scale %g (tol %g)",
			worst, scale, tol)
	}
	t.Logf("FH theorem verified: worst deviation %.2e on scale %.2e", worst, scale)
}
