package prop

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/solver"
)

func testSolver(t testing.TB, cfg *gauge.Field, mass float64) *QuarkSolver {
	t.Helper()
	m, err := dirac.NewMobius(cfg, dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: mass})
	if err != nil {
		t.Fatal(err)
	}
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		t.Fatal(err)
	}
	return NewQuarkSolver(eo, solver.Params{Tol: 1e-9, Precision: solver.Single})
}

func TestPointSourceStructure(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	b := PointSource(g, [4]int{1, 0, 1, 2}, 2, 1)
	nz := 0
	for i, v := range b {
		if v != 0 {
			nz++
			site := i / dirac.SpinorLen
			comp := i % dirac.SpinorLen
			if g.Coords(site) != [4]int{1, 0, 1, 2} || comp != 2*3+1 {
				t.Fatalf("wrong nonzero at %d", i)
			}
		}
	}
	if nz != 1 {
		t.Fatalf("%d nonzeros", nz)
	}
}

// TestPointSourceRejectsBadSpinColour: a spin outside [0, 4) or a colour
// outside [0, 3) panics with a message that names both, rather than
// writing a component of the next site (spin 4 at the origin) or running
// off the field (spin 4 at the last site).
func TestPointSourceRejectsBadSpinColour(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	last := g.Coords(g.Vol - 1)
	for _, c := range []struct {
		x0           [4]int
		spin, colour int
	}{
		{[4]int{}, 4, 1}, {last, 4, 0}, {[4]int{}, -1, 0}, {[4]int{}, 0, 3}, {[4]int{}, 2, -1}, {last, 3, 3},
	} {
		func() {
			defer func() {
				want := fmt.Sprintf("spin %d, colour %d", c.spin, c.colour)
				if r := fmt.Sprint(recover()); !strings.Contains(r, want) {
					t.Errorf("PointSource(%v, %d, %d) panicked with %q, want a message naming %q", c.x0, c.spin, c.colour, r, want)
				}
			}()
			PointSource(g, c.x0, c.spin, c.colour)
		}()
	}
}

func TestInjectProjectChirality(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 2)
	rng := rand.New(rand.NewSource(1))
	b4 := make([]complex128, g.Vol*dirac.SpinorLen)
	for i := range b4 {
		b4[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	ls := 4
	b5 := Inject5D(b4, ls)
	vol4 := len(b4)
	// Upper chirality lives on wall 0, lower on wall Ls-1, nothing else.
	for s := 0; s < ls; s++ {
		for site := 0; site < vol4; site += dirac.SpinorLen {
			for i := 0; i < 12; i++ {
				v := b5[s*vol4+site+i]
				switch {
				case s == 0 && i < 6:
					if v != b4[site+i] {
						t.Fatal("P+ injection wrong")
					}
				case s == ls-1 && i >= 6:
					if v != b4[site+i] {
						t.Fatal("P- injection wrong")
					}
				default:
					if v != 0 {
						t.Fatalf("stray component s=%d i=%d", s, i)
					}
				}
			}
		}
	}
	// Projection of the injected source swaps walls, so Project(Inject) is
	// NOT the identity; but Project on a field living only on the opposite
	// walls recovers b4.
	psi5 := make([]complex128, ls*vol4)
	for site := 0; site < vol4; site += dirac.SpinorLen {
		for i := 0; i < 6; i++ {
			psi5[(ls-1)*vol4+site+i] = b4[site+i]
		}
		for i := 6; i < 12; i++ {
			psi5[site+i] = b4[site+i]
		}
	}
	q := Project4D(psi5, ls)
	for i := range q {
		if q[i] != b4[i] {
			t.Fatal("Project4D lost data")
		}
	}
}

func TestSpinMulMatchesDense(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 2)
	rng := rand.New(rand.NewSource(2))
	src := make([]complex128, g.Vol*dirac.SpinorLen)
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	m := linalg.Gamma(2).MulSM(linalg.Gamma(4)) // gamma_z gamma_5
	dst := make([]complex128, len(src))
	SpinMul(dst, src, m)
	for s := 0; s < g.Vol; s++ {
		for sp := 0; sp < 4; sp++ {
			for c := 0; c < 3; c++ {
				var want complex128
				for sp2 := 0; sp2 < 4; sp2++ {
					want += m[sp][sp2] * src[s*12+sp2*3+c]
				}
				if cmplx.Abs(dst[s*12+sp*3+c]-want) > 1e-13 {
					t.Fatalf("SpinMul wrong at site %d", s)
				}
			}
		}
	}
}

func TestSolve4DSatisfiesDiracEquation(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewWeak(g, 3, 0.3)
	cfg.FlipTimeBoundary()
	qs := testSolver(t, cfg, 0.2)
	b4 := PointSource(g, [4]int{0, 0, 0, 0}, 0, 0)
	q, st, err := qs.Solve4D(b4)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	if linalg.NormSq(q, 0) == 0 {
		t.Fatal("zero propagator")
	}
	if qs.Solves != 1 || qs.TotalIterations == 0 {
		t.Fatalf("accounting: %+v", qs)
	}
}

// TestPropagatorGaugeCovariance is the strongest end-to-end check of the
// whole solve chain: under a gauge rotation Omega the point-to-point
// propagator transforms as S'(x,0) = Omega(x) S(x,0) Omega(0)^dag.
func TestPropagatorGaugeCovariance(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewWeak(g, 5, 0.25)
	cfg.FlipTimeBoundary()
	origin := [4]int{0, 0, 0, 0}

	qs := testSolver(t, cfg, 0.25)
	p1, err := qs.ComputePoint(origin)
	if err != nil {
		t.Fatal(err)
	}

	omega := gauge.RandomGaugeRotation(g, 7)
	cfg2 := cfg.Clone()
	if err := cfg2.GaugeTransform(omega); err != nil {
		t.Fatal(err)
	}
	qs2 := testSolver(t, cfg2, 0.25)
	p2, err := qs2.ComputePoint(origin)
	if err != nil {
		t.Fatal(err)
	}

	// Compare p2 against Omega(x) p1 Omega(0)^dag in spin-color space.
	o0 := omega[g.Index(origin)]
	worst := 0.0
	scale := 0.0
	for site := 0; site < g.Vol; site++ {
		m1 := p1.At(site)
		m2 := p2.At(site)
		ox := omega[site]
		for sp := 0; sp < 4; sp++ {
			for c := 0; c < 3; c++ {
				for sp2 := 0; sp2 < 4; sp2++ {
					for c2 := 0; c2 < 3; c2++ {
						// (Omega(x) S Omega(0)^dag)_{(sp,c),(sp2,c2)}
						var want complex128
						for a := 0; a < 3; a++ {
							for b := 0; b < 3; b++ {
								want += ox[c][a] * m1[sp*3+a][sp2*3+b] *
									cmplx.Conj(o0[c2][b])
							}
						}
						d := cmplx.Abs(m2[sp*3+c][sp2*3+c2] - want)
						if d > worst {
							worst = d
						}
						if s := cmplx.Abs(want); s > scale {
							scale = s
						}
					}
				}
			}
		}
	}
	if worst > 1e-6*scale {
		t.Fatalf("gauge covariance violated: worst %g vs scale %g", worst, scale)
	}
}

func TestFHPropagatorLinearInGamma(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewWeak(g, 9, 0.2)
	cfg.FlipTimeBoundary()
	qs := testSolver(t, cfg, 0.3)
	base, err := qs.ComputePoint([4]int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	g1 := linalg.Gamma(4)
	g2 := linalg.AxialGamma()
	sum := g1.AddSM(g2)

	fh1, err := qs.FHPropagatorCtx(context.Background(), base, g1)
	if err != nil {
		t.Fatal(err)
	}
	fh2, err := qs.FHPropagatorCtx(context.Background(), base, g2)
	if err != nil {
		t.Fatal(err)
	}
	fhSum, err := qs.FHPropagatorCtx(context.Background(), base, sum)
	if err != nil {
		t.Fatal(err)
	}
	worst, scale := 0.0, 0.0
	for j := 0; j < NComp; j++ {
		for i := range fhSum.Col[j] {
			want := fh1.Col[j][i] + fh2.Col[j][i]
			if d := cmplx.Abs(fhSum.Col[j][i] - want); d > worst {
				worst = d
			}
			if s := cmplx.Abs(want); s > scale {
				scale = s
			}
		}
	}
	if worst > 1e-5*scale {
		t.Fatalf("FH not linear in Gamma: %g vs %g", worst, scale)
	}
}

func TestFHWithZeroGammaIsZero(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewUnit(g)
	cfg.FlipTimeBoundary()
	qs := testSolver(t, cfg, 0.3)
	base, err := qs.ComputePoint([4]int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	var zero linalg.SpinMatrix
	fh, err := qs.FHPropagatorCtx(context.Background(), base, zero)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < NComp; j++ {
		if linalg.NormSq(fh.Col[j], 0) != 0 {
			t.Fatal("zero insertion gave non-zero FH propagator")
		}
	}
}

func TestPropagatorAtMatrixView(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 2)
	p := NewPropagator(g)
	p.Col[5][7*12+3] = 2 + 1i
	m := p.At(7)
	if m[3][5] != 2+1i {
		t.Fatalf("At view wrong: %v", m[3][5])
	}
}

func TestFlipTimeBoundaryPreservesPlaquette(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewWeak(g, 11, 0.2)
	p0 := cfg.Plaquette()
	cfg.FlipTimeBoundary()
	if math.Abs(cfg.Plaquette()-p0) > 1e-13 {
		t.Fatal("plaquette changed by boundary flip")
	}
}
