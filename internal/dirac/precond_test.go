package dirac

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

func testMobiusEO(t *testing.T, seed int64) *MobiusEO {
	t.Helper()
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewRandom(g, seed)
	m, err := NewMobius(cfg, MobiusParams{Ls: 4, M5: 1.3, B5: 1.25, C5: 0.25, M: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewMobiusEO(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestM5InverseIsExact(t *testing.T) {
	p := testMobiusEO(t, 1)
	rng := rand.New(rand.NewSource(1))
	x := randField(rng, p.HalfSize())
	ax := make([]complex128, p.HalfSize())
	p.applyA(ax, x, false)
	back := make([]complex128, p.HalfSize())
	p.applyAInv(back, ax, false)
	if d := fieldDist(back, x); d > 1e-10 {
		t.Fatalf("A^{-1} A != 1: %g", d)
	}
	// Dagger path too.
	p.applyA(ax, x, true)
	p.applyAInv(back, ax, true)
	if d := fieldDist(back, x); d > 1e-10 {
		t.Fatalf("A^{-dag} A^dag != 1: %g", d)
	}
}

func TestApplyADaggerIsAdjoint(t *testing.T) {
	p := testMobiusEO(t, 3)
	rng := rand.New(rand.NewSource(2))
	x := randField(rng, p.HalfSize())
	y := randField(rng, p.HalfSize())
	ay := make([]complex128, p.HalfSize())
	p.applyA(ay, y, false)
	adx := make([]complex128, p.HalfSize())
	p.applyA(adx, x, true)
	lhs := linalg.Dot(x, ay, 0)
	rhs := linalg.Dot(adx, y, 0)
	if cmplx.Abs(lhs-rhs) > 1e-10*(1+cmplx.Abs(lhs)) {
		t.Fatalf("A adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestApplyBDaggerIsAdjoint(t *testing.T) {
	p := testMobiusEO(t, 5)
	rng := rand.New(rand.NewSource(3))
	x := randField(rng, p.HalfSize())
	y := randField(rng, p.HalfSize())
	by := make([]complex128, p.HalfSize())
	p.applyB(by, y, false)
	bdx := make([]complex128, p.HalfSize())
	p.applyB(bdx, x, true)
	lhs := linalg.Dot(x, by, 0)
	rhs := linalg.Dot(bdx, y, 0)
	if cmplx.Abs(lhs-rhs) > 1e-10*(1+cmplx.Abs(lhs)) {
		t.Fatalf("B adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestSchurDaggerIsTrueAdjoint(t *testing.T) {
	p := testMobiusEO(t, 7)
	rng := rand.New(rand.NewSource(4))
	x := randField(rng, p.HalfSize())
	y := randField(rng, p.HalfSize())
	dy := make([]complex128, p.HalfSize())
	p.Apply(dy, y)
	lhs := linalg.Dot(x, dy, 0)
	ddx := make([]complex128, p.HalfSize())
	p.ApplyDagger(ddx, x)
	rhs := linalg.Dot(ddx, y, 0)
	if cmplx.Abs(lhs-rhs) > 1e-9*(1+cmplx.Abs(lhs)) {
		t.Fatalf("Schur adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestNormalOperatorIsHermitianPositive(t *testing.T) {
	p := testMobiusEO(t, 9)
	rng := rand.New(rand.NewSource(5))
	x := randField(rng, p.HalfSize())
	y := randField(rng, p.HalfSize())
	nx := make([]complex128, p.HalfSize())
	ny := make([]complex128, p.HalfSize())
	p.ApplyNormal([][]complex128{nx, ny}, [][]complex128{x, y})
	lhs := linalg.Dot(x, ny, 0)
	rhs := linalg.Dot(nx, y, 0)
	if cmplx.Abs(lhs-rhs) > 1e-9*(1+cmplx.Abs(lhs)) {
		t.Fatalf("normal operator not Hermitian: %v vs %v", lhs, rhs)
	}
	selfIP := linalg.Dot(x, nx, 0)
	if real(selfIP) <= 0 || math.Abs(imag(selfIP)) > 1e-9*real(selfIP) {
		t.Fatalf("normal operator not positive: %v", selfIP)
	}
}

// TestSchurFactorizationConsistency verifies the block elimination: for
// any full-lattice psi, computing eta = D psi, then running the Schur
// pipeline with eta, the preconditioned operator applied to the true even
// solution must reproduce bhat.
func TestSchurFactorizationConsistency(t *testing.T) {
	p := testMobiusEO(t, 11)
	rng := rand.New(rand.NewSource(6))
	psi := randField(rng, p.M.Size())
	eta := make([]complex128, p.M.Size())
	p.M.Apply(eta, psi)

	bhat, etaOdd := p.PrepareSource(eta)
	psiEven := make([]complex128, p.HalfSize())
	p.GatherParity5D(0, psi, psiEven)

	got := make([]complex128, p.HalfSize())
	p.Apply(got, psiEven)
	if d := fieldDist(got, bhat); d > 1e-9*math.Sqrt(linalg.NormSq(bhat, 0)) {
		t.Fatalf("Dhat psi_e != bhat: %g", d)
	}

	// Reconstruct must give back the original full solution.
	full := p.Reconstruct(psiEven, etaOdd)
	if d := fieldDist(full, psi); d > 1e-9*math.Sqrt(linalg.NormSq(psi, 0)) {
		t.Fatalf("Reconstruct lost the odd solution: %g", d)
	}
}

func TestGatherScatterParity5DRoundTrip(t *testing.T) {
	p := testMobiusEO(t, 13)
	rng := rand.New(rand.NewSource(7))
	full := randField(rng, p.M.Size())
	even := make([]complex128, p.HalfSize())
	odd := make([]complex128, p.HalfSize())
	p.GatherParity5D(0, full, even)
	p.GatherParity5D(1, full, odd)
	back := make([]complex128, p.M.Size())
	p.ScatterParity5D(0, even, back)
	p.ScatterParity5D(1, odd, back)
	if d := fieldDist(full, back); d > 0 {
		t.Fatalf("parity round trip lost data: %g", d)
	}
}

func TestHopHalfMatchesFullWilsonHopping(t *testing.T) {
	// Hopping on half fields must agree with (Dw - diag) on the full
	// lattice restricted to one parity.
	p := testMobiusEO(t, 15)
	g := p.M.W.G
	rng := rand.New(rand.NewSource(8))
	full := randField(rng, p.M.Size())

	// Full-lattice hopping = Dw(src) - (4+Mass)*src per slice.
	w := p.M.W
	hop := make([]complex128, p.M.Size())
	vol4 := g.Vol * SpinorLen
	for s := 0; s < p.M.Ls; s++ {
		w.Apply(hop[s*vol4:(s+1)*vol4], full[s*vol4:(s+1)*vol4])
	}
	diag := complex(4+w.Mass, 0)
	for i := range hop {
		hop[i] -= diag * full[i]
	}

	// Half-field path: gather odd, hop to even, compare to even part.
	odd := make([]complex128, p.HalfSize())
	p.GatherParity5D(1, full, odd)
	evenOut := make([]complex128, p.HalfSize())
	p.hopHalf(evenOut, odd, 0)
	wantEven := make([]complex128, p.HalfSize())
	p.GatherParity5D(0, hop, wantEven)
	if d := fieldDist(evenOut, wantEven); d > 1e-10 {
		t.Fatalf("hopHalf differs from full hopping: %g", d)
	}
}
