package solver

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// diagOp is a trivial diagonal operator for exact-answer tests.
type diagOp struct{ d []complex128 }

func (o *diagOp) Size() int { return len(o.d) }
func (o *diagOp) Apply(dst, src []complex128) {
	for i := range src {
		dst[i] = o.d[i] * src[i]
	}
}
func (o *diagOp) ApplyDagger(dst, src []complex128) {
	for i := range src {
		dst[i] = cmplx.Conj(o.d[i]) * src[i]
	}
}

func newTestEO(t testing.TB, seed int64, mass float64) *dirac.MobiusEO {
	t.Helper()
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewWeak(g, seed, 0.3)
	m, err := dirac.NewMobius(cfg, dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: mass})
	if err != nil {
		t.Fatal(err)
	}
	p, err := dirac.NewMobiusEO(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randRHS(rng *rand.Rand, n int) []complex128 {
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return b
}

func relResidual(op Linear, x, b []complex128) float64 {
	n := op.Size()
	tmp := make([]complex128, n)
	op.Apply(tmp, x)
	num, den := 0.0, 0.0
	for i := range b {
		e := tmp[i] - b[i]
		num += real(e)*real(e) + imag(e)*imag(e)
		den += real(b[i])*real(b[i]) + imag(b[i])*imag(b[i])
	}
	return math.Sqrt(num / den)
}

func TestCGNEDiagonalExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 1024
	op := &diagOp{d: make([]complex128, n)}
	for i := range op.d {
		op.d[i] = complex(1+rng.Float64(), rng.NormFloat64()*0.1)
	}
	b := randRHS(rng, n)
	x, st, err := CGNE(context.Background(), op, b, Params{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("not converged")
	}
	for i := range x {
		want := b[i] / op.d[i]
		if cmplx.Abs(x[i]-want) > 1e-8*(1+cmplx.Abs(want)) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
}

func TestCGNEMobiusConverges(t *testing.T) {
	p := newTestEO(t, 3, 0.2)
	rng := rand.New(rand.NewSource(2))
	b := randRHS(rng, p.Size())
	x, st, err := CGNE(context.Background(), p, b, Params{Tol: 1e-8, FlopsPerApply: p.FlopsPerApply()})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.TrueResidual > 1e-8 {
		t.Fatalf("stats: %+v", st)
	}
	if res := relResidual(p, x, b); res > 1e-8 {
		t.Fatalf("independent residual check: %g", res)
	}
	if st.Flops <= 0 || st.Iterations <= 0 {
		t.Fatalf("accounting: %+v", st)
	}
}

func TestFullSolveThroughSchurPipeline(t *testing.T) {
	// End-to-end: random full-lattice RHS, PrepareSource, solve, then
	// Reconstruct and verify against the *unpreconditioned* operator.
	p := newTestEO(t, 5, 0.25)
	rng := rand.New(rand.NewSource(3))
	eta := randRHS(rng, p.M.Size())
	bhat, etaOdd := p.PrepareSource(eta)
	xe, st, err := CGNE(context.Background(), p, bhat, Params{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("Schur solve did not converge")
	}
	psi := p.Reconstruct(xe, etaOdd)
	check := make([]complex128, p.M.Size())
	p.M.Apply(check, psi)
	num, den := 0.0, 0.0
	for i := range eta {
		e := check[i] - eta[i]
		num += real(e)*real(e) + imag(e)*imag(e)
		den += real(eta[i])*real(eta[i]) + imag(eta[i])*imag(eta[i])
	}
	if res := math.Sqrt(num / den); res > 1e-8 {
		t.Fatalf("full-system residual %g", res)
	}
}

func TestMixedSingleMatchesDouble(t *testing.T) {
	p := newTestEO(t, 7, 0.2)
	sl := dirac.NewMobiusEO32(p)
	rng := rand.New(rand.NewSource(4))
	b := randRHS(rng, p.Size())

	xd, _, err := CGNE(context.Background(), p, b, Params{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	xm, st, err := CGNEMixed(context.Background(), p, sl, b, Params{Tol: 1e-9, Precision: Single})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Precision != Single {
		t.Fatalf("stats: %+v", st)
	}
	if st.ReliableUpdates == 0 {
		t.Fatal("single-precision solve to 1e-9 must need reliable updates")
	}
	num, den := 0.0, 0.0
	for i := range xd {
		e := xd[i] - xm[i]
		num += real(e)*real(e) + imag(e)*imag(e)
		den += real(xd[i])*real(xd[i]) + imag(xd[i])*imag(xd[i])
	}
	if d := math.Sqrt(num / den); d > 1e-6 {
		t.Fatalf("mixed solution differs from double by %g", d)
	}
}

func TestMixedHalfConverges(t *testing.T) {
	p := newTestEO(t, 9, 0.25)
	sl := dirac.NewMobiusEO32(p)
	rng := rand.New(rand.NewSource(5))
	b := randRHS(rng, p.Size())
	x, st, err := CGNEMixed(context.Background(), p, sl, b, Params{Tol: 1e-7, Precision: Half})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("half-precision solve failed: %+v", st)
	}
	if res := relResidual(p, x, b); res > 1e-7 {
		t.Fatalf("half-precision residual %g", res)
	}
	if st.ReliableUpdates == 0 {
		t.Fatal("half precision must trigger reliable updates")
	}
}

func TestMixedFallsBackToDoubleWhenRequested(t *testing.T) {
	p := newTestEO(t, 11, 0.2)
	rng := rand.New(rand.NewSource(6))
	b := randRHS(rng, p.Size())
	x, st, err := CGNEMixed(context.Background(), p, nil, b, Params{Tol: 1e-8, Precision: Double})
	if err != nil {
		t.Fatal(err)
	}
	if st.Precision != Double || !st.Converged {
		t.Fatalf("stats: %+v", st)
	}
	if res := relResidual(p, x, b); res > 1e-8 {
		t.Fatalf("residual %g", res)
	}
}

func TestMaxIterReported(t *testing.T) {
	p := newTestEO(t, 13, 0.05)
	rng := rand.New(rand.NewSource(7))
	b := randRHS(rng, p.Size())
	_, st, err := CGNE(context.Background(), p, b, Params{Tol: 1e-12, MaxIter: 3})
	if !errors.Is(err, ErrMaxIter) {
		t.Fatalf("want ErrMaxIter, got %v (stats %+v)", err, st)
	}
	if st.Converged {
		t.Fatal("converged flag set despite ErrMaxIter")
	}
}

func TestZeroRHSGivesZeroSolution(t *testing.T) {
	p := newTestEO(t, 15, 0.2)
	b := make([]complex128, p.Size())
	x, st, err := CGNE(context.Background(), p, b, Params{})
	if err != nil || !st.Converged {
		t.Fatalf("err=%v stats=%+v", err, st)
	}
	if linalg.NormSq(x, 0) != 0 {
		t.Fatal("zero rhs produced non-zero solution")
	}
}

func TestSolverLinearityInRHS(t *testing.T) {
	// x(2b) = 2 x(b) for the linear solver (checked loosely: both are
	// approximations at tolerance).
	p := newTestEO(t, 17, 0.3)
	rng := rand.New(rand.NewSource(8))
	b := randRHS(rng, p.Size())
	b2 := make([]complex128, len(b))
	linalg.AxpyZ(1, b, b, b2, 0)
	x1, _, err := CGNE(context.Background(), p, b, Params{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	x2, _, err := CGNE(context.Background(), p, b2, Params{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	num, den := 0.0, 0.0
	for i := range x1 {
		e := 2*x1[i] - x2[i]
		num += real(e)*real(e) + imag(e)*imag(e)
		den += real(x2[i])*real(x2[i]) + imag(x2[i])*imag(x2[i])
	}
	if d := math.Sqrt(num / den); d > 1e-7 {
		t.Fatalf("linearity violated: %g", d)
	}
}

func TestPrecisionString(t *testing.T) {
	if Double.String() != "double" || Single.String() != "single" || Half.String() != "half" {
		t.Fatal("precision names wrong")
	}
	if Precision(9).String() == "" {
		t.Fatal("unknown precision must still format")
	}
}

// TestPreconditioningAblation quantifies why the production solver works
// on the red-black Schur system: solving the same physical problem
// through the full (unpreconditioned) operator costs substantially more
// matvec flops to reach the same true residual.
func TestPreconditioningAblation(t *testing.T) {
	p := newTestEO(t, 19, 0.2)
	full := p.M

	// Common physical problem: full-lattice source.
	rng := rand.New(rand.NewSource(9))
	eta := randRHS(rng, full.Size())

	// Preconditioned path.
	bhat, etaOdd := p.PrepareSource(eta)
	xe, stPre, err := CGNE(context.Background(), p, bhat, Params{Tol: 1e-8, FlopsPerApply: p.FlopsPerApply()})
	if err != nil {
		t.Fatal(err)
	}
	psi := p.Reconstruct(xe, etaOdd)

	// Unpreconditioned path on the same system.
	fullFlops := full.Flops()
	xFull, stFull, err := CGNE(context.Background(), full, eta, Params{Tol: 1e-8, FlopsPerApply: fullFlops})
	if err != nil {
		t.Fatal(err)
	}

	// Both solutions solve D psi = eta.
	check := make([]complex128, full.Size())
	for name, x := range map[string][]complex128{"schur": psi, "full": xFull} {
		full.Apply(check, x)
		num, den := 0.0, 0.0
		for i := range eta {
			d := check[i] - eta[i]
			num += real(d)*real(d) + imag(d)*imag(d)
			den += real(eta[i])*real(eta[i]) + imag(eta[i])*imag(eta[i])
		}
		if res := math.Sqrt(num / den); res > 1e-7 {
			t.Fatalf("%s residual %g", name, res)
		}
	}
	// The headline: red-black preconditioning saves matvec flops.
	if stPre.Flops >= stFull.Flops {
		t.Fatalf("preconditioning did not pay: %d vs %d flops",
			stPre.Flops, stFull.Flops)
	}
	t.Logf("schur: %d iters, %.3g flops; full: %d iters, %.3g flops (x%.2f)",
		stPre.Iterations, float64(stPre.Flops),
		stFull.Iterations, float64(stFull.Flops),
		float64(stFull.Flops)/float64(stPre.Flops))
}

// normalOp is a diagOp that also offers the one-call normal operator and
// counts which entry points the solver took.
type normalOp struct {
	diagOp
	tmp                     []complex128
	applies, daggers, fused int
}

func (o *normalOp) Apply(dst, src []complex128) {
	o.applies++
	o.diagOp.Apply(dst, src)
}

func (o *normalOp) ApplyDagger(dst, src []complex128) {
	o.daggers++
	o.diagOp.ApplyDagger(dst, src)
}

func (o *normalOp) ApplyNormal(dst, src [][]complex128) {
	if len(src) != 1 {
		panic("normalOp: CGNE applies one system at a time")
	}
	o.fused++
	o.diagOp.Apply(o.tmp, src[0])
	o.diagOp.ApplyDagger(dst[0], o.tmp)
}

// TestCGNETakesApplyNormalWhenOffered checks the selection is by the
// operator's type alone: an operator that is a Normal gets exactly one
// ApplyNormal call, on one system, per iteration (and one for an initial
// guess) in place of the Apply+ApplyDagger pair, and the solve is
// bit-for-bit the one without.
func TestCGNETakesApplyNormalWhenOffered(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 64
	d := make([]complex128, n)
	for i := range d {
		d[i] = complex(1+rng.Float64(), rng.Float64()-0.5)
	}
	b := randRHS(rng, n)
	x0 := randRHS(rng, n)
	p := Params{Tol: 1e-10, RecordResiduals: true}

	plain := &diagOp{d: d}
	xRef, stRef, err := cgneFrom(context.Background(), plain, b, x0, p)
	if err != nil {
		t.Fatal(err)
	}
	op := &normalOp{diagOp: diagOp{d: d}, tmp: make([]complex128, n)}
	x, st, err := cgneFrom(context.Background(), op, b, x0, p)
	if err != nil {
		t.Fatal(err)
	}
	if op.fused != st.Iterations+1 {
		t.Fatalf("ApplyNormal called %d times over %d iterations and one initial guess", op.fused, st.Iterations)
	}
	// What is left for the pair: D^dag b, and the true-residual checks.
	if op.daggers != 1 || op.applies == 0 || op.applies > 1+st.Iterations {
		t.Fatalf("Apply called %d times, ApplyDagger %d: the normal operator still went through the pair", op.applies, op.daggers)
	}
	if st.Iterations != stRef.Iterations || len(st.Residuals) != len(stRef.Residuals) {
		t.Fatalf("iterations %d vs %d", st.Iterations, stRef.Iterations)
	}
	for i := range x {
		if x[i] != xRef[i] {
			t.Fatalf("component %d: %v vs %v", i, x[i], xRef[i])
		}
	}
	for i := range st.Residuals {
		if st.Residuals[i] != stRef.Residuals[i] {
			t.Fatalf("residual %d: %v vs %v", i, st.Residuals[i], stRef.Residuals[i])
		}
	}
}

func TestCGNEFromRespectsGuess(t *testing.T) {
	// Starting from the exact solution must converge immediately.
	p := newTestEO(t, 35, 0.3)
	rng := rand.New(rand.NewSource(6))
	b := randRHS(rng, p.Size())
	x, _, err := CGNE(context.Background(), p, b, Params{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := cgneFrom(context.Background(), p, b, x, Params{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations > 2 {
		t.Fatalf("exact guess still took %d iterations", st.Iterations)
	}
}
