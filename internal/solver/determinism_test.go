package solver

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
)

// solverWorkerCounts is the worker grid the bitwise-determinism tests
// sweep: serial, even/odd small counts, a count that does not divide
// typical problem sizes, and whatever the host really has.
func solverWorkerCounts() []int {
	return []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)}
}

// bitwiseEqual compares solutions exactly - no tolerance. The fixed-chunk
// reductions in linalg make the whole Krylov iteration a deterministic
// function of the inputs, independent of the worker count, and these
// tests are the end-to-end proof.
func bitwiseEqual(t *testing.T, label string, w int, got, ref []complex128) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: workers=%d: length %d vs %d", label, w, len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("%s: workers=%d: element %d differs bitwise: %v vs %v",
				label, w, i, got[i], ref[i])
		}
	}
}

func sameResiduals(t *testing.T, label string, w int, got, ref []float64) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: workers=%d: residual history length %d vs %d", label, w, len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("%s: workers=%d: residual %d differs bitwise: %v vs %v",
				label, w, i, got[i], ref[i])
		}
	}
}

// TestCGNEBitwiseDeterministicAcrossWorkerCounts runs the full
// double-precision CGNE on the Mobius operator at every worker count and
// demands the solution vector AND the per-iteration residual trajectory
// be bit-for-bit identical: the property that lets a journaled campaign
// resume on a different node width without changing the physics.
func TestCGNEBitwiseDeterministicAcrossWorkerCounts(t *testing.T) {
	op := newTestEO(t, 21, 0.2)
	rng := rand.New(rand.NewSource(42))
	b := randRHS(rng, op.Size())

	run := func(w int) ([]complex128, Stats) {
		x, st, err := CGNE(context.Background(), op, b,
			Params{Tol: 1e-8, Workers: w, RecordResiduals: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		return x, st
	}
	refX, refSt := run(1)
	if len(refSt.Residuals) != refSt.Iterations {
		t.Fatalf("residual history has %d entries for %d iterations",
			len(refSt.Residuals), refSt.Iterations)
	}
	for _, w := range solverWorkerCounts()[1:] {
		x, st := run(w)
		if st.Iterations != refSt.Iterations {
			t.Fatalf("workers=%d: %d iterations vs %d serial", w, st.Iterations, refSt.Iterations)
		}
		bitwiseEqual(t, "cgne", w, x, refX)
		sameResiduals(t, "cgne", w, st.Residuals, refSt.Residuals)
	}
}

// TestCGNEMixedBitwiseDeterministicAcrossWorkerCounts is the same sweep
// through the production mixed-precision path: sloppy single-precision
// inner stage, double-precision reliable updates. The recorded residuals
// here are the reliable-update trajectory.
func TestCGNEMixedBitwiseDeterministicAcrossWorkerCounts(t *testing.T) {
	op := newTestEO(t, 23, 0.25)
	sloppy := dirac.NewMobiusEO32(op)
	rng := rand.New(rand.NewSource(43))
	b := randRHS(rng, op.Size())

	run := func(w int) ([]complex128, Stats) {
		x, st, err := CGNEMixed(context.Background(), op, sloppy, b,
			Params{Tol: 1e-8, Precision: Single, Workers: w, RecordResiduals: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		return x, st
	}
	refX, refSt := run(1)
	if refSt.ReliableUpdates == 0 || len(refSt.Residuals) == 0 {
		t.Fatal("no reliable updates recorded; the sweep is vacuous")
	}
	for _, w := range solverWorkerCounts()[1:] {
		x, st := run(w)
		if st.Iterations != refSt.Iterations || st.ReliableUpdates != refSt.ReliableUpdates {
			t.Fatalf("workers=%d: %d iters/%d updates vs %d/%d serial",
				w, st.Iterations, st.ReliableUpdates, refSt.Iterations, refSt.ReliableUpdates)
		}
		bitwiseEqual(t, "cgne-mixed", w, x, refX)
		sameResiduals(t, "cgne-mixed", w, st.Residuals, refSt.Residuals)
	}
}

// TestConcurrentSolvesBitwise runs two solves at once on a lattice whose
// Schur passes and BLAS-1 calls are past linalg's serial cuts, so both
// split their passes over goroutines at the same time. Each must still
// produce the serial solve's iterate to the bit. The iteration cap keeps
// the solves short; an unconverged iterate is as deterministic as a
// converged one.
func TestConcurrentSolvesBitwise(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	solve := func(seed int64, workers int) []complex128 {
		m, err := dirac.NewMobius(gauge.NewWeak(g, seed, 0.3),
			dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.2})
		if err != nil {
			t.Error(err)
			return nil
		}
		op, err := dirac.NewMobiusEO(m)
		if err != nil {
			t.Error(err)
			return nil
		}
		m.W.Workers = workers
		b := randRHS(rand.New(rand.NewSource(seed)), op.Size())
		x, _, err := CGNEMixed(context.Background(), op, dirac.NewMobiusEO32(op), b,
			Params{Tol: 1e-8, Precision: Single, Workers: workers, MaxIter: 6})
		if err != nil && !errors.Is(err, ErrMaxIter) {
			t.Error(err)
		}
		return x
	}
	seeds := []int64{31, 32}
	ref := make([][]complex128, len(seeds))
	for i, seed := range seeds {
		ref[i] = solve(seed, 1)
	}
	got := make([][]complex128, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = solve(seed, 4)
		}()
	}
	wg.Wait()
	for i := range seeds {
		bitwiseEqual(t, "concurrent cgne-mixed", 4, got[i], ref[i])
	}
}
