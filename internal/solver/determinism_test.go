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
	"femtoverse/internal/linalg"
)

// bitwiseEqual compares solutions exactly - no tolerance.
func bitwiseEqual(t *testing.T, label string, got, ref []complex128) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("%s: element %d differs bitwise: %v vs %v", label, i, got[i], ref[i])
		}
	}
}

// solverWorkerCounts is the lane-budget grid the bitwise-determinism tests
// sweep: serial, even/odd small counts, a count that does not divide
// typical problem sizes, and whatever the host really has.
func solverWorkerCounts() []int {
	return []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)}
}

func sameResiduals(t *testing.T, label string, got, ref []float64) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: residual history length %d vs %d", label, len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("%s: residual %d differs bitwise: %v vs %v", label, i, got[i], ref[i])
		}
	}
}

// onLanes sets the lane budget to len(ops) and runs solve once per operator,
// all at once, each on a goroutine that holds a lane for the whole solve -
// the way the lanes of a batch run. It returns what each solve returned.
func onLanes[Op any](ops []Op, solve func(Op) ([]complex128, Stats, error)) ([][]complex128, []Stats, []error) {
	defer func(n int) { linalg.DefaultWorkers = n }(linalg.DefaultWorkers)
	linalg.DefaultWorkers = len(ops)
	xs, sts, errs := make([][]complex128, len(ops)), make([]Stats, len(ops)), make([]error, len(ops))
	var wg sync.WaitGroup
	for l, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			linalg.EnterLane()
			defer linalg.LeaveLane()
			xs[l], sts[l], errs[l] = solve(op)
		}()
	}
	wg.Wait()
	return xs, sts, errs
}

// TestCGNEBitwiseDeterministicAcrossWorkerCounts runs the full
// double-precision CGNE on the Mobius operator on as many lanes at once as
// the lane budget allows, at every budget, and demands each lane's solution
// vector AND per-iteration residual trajectory be bit-for-bit the lone
// solve's: the property that lets a journaled campaign resume on a
// different node width without changing the physics.
func TestCGNEBitwiseDeterministicAcrossWorkerCounts(t *testing.T) {
	b := randRHS(rand.New(rand.NewSource(42)), newTestEO(t, 21, 0.2).Size())
	solve := func(op *dirac.MobiusEO) ([]complex128, Stats, error) {
		return CGNE(context.Background(), op, b, Params{Tol: 1e-8, RecordResiduals: true})
	}
	refX, refSt, err := solve(newTestEO(t, 21, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if len(refSt.Residuals) != refSt.Iterations {
		t.Fatalf("residual history has %d entries for %d iterations",
			len(refSt.Residuals), refSt.Iterations)
	}
	for _, w := range solverWorkerCounts() {
		ops := make([]*dirac.MobiusEO, w)
		for l := range ops {
			ops[l] = newTestEO(t, 21, 0.2)
		}
		xs, sts, errs := onLanes(ops, solve)
		for l := range ops {
			if errs[l] != nil {
				t.Fatalf("workers=%d lane %d: %v", w, l, errs[l])
			}
			if sts[l].Iterations != refSt.Iterations {
				t.Fatalf("workers=%d lane %d: %d iterations vs %d alone",
					w, l, sts[l].Iterations, refSt.Iterations)
			}
			bitwiseEqual(t, "cgne", xs[l], refX)
			sameResiduals(t, "cgne", sts[l].Residuals, refSt.Residuals)
		}
	}
}

// TestCGNEMixedBitwiseDeterministicAcrossWorkerCounts is the same sweep
// through the production mixed-precision path: sloppy single-precision
// inner stage, double-precision reliable updates. The recorded residuals
// here are the reliable-update trajectory.
func TestCGNEMixedBitwiseDeterministicAcrossWorkerCounts(t *testing.T) {
	b := randRHS(rand.New(rand.NewSource(43)), newTestEO(t, 23, 0.25).Size())
	solve := func(op *dirac.MobiusEO) ([]complex128, Stats, error) {
		return CGNEMixed(context.Background(), op, dirac.NewMobiusEO32(op), b,
			Params{Tol: 1e-8, Precision: Single, RecordResiduals: true})
	}
	refX, refSt, err := solve(newTestEO(t, 23, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if refSt.ReliableUpdates == 0 || len(refSt.Residuals) == 0 {
		t.Fatal("no reliable updates recorded; the sweep is vacuous")
	}
	for _, w := range solverWorkerCounts() {
		ops := make([]*dirac.MobiusEO, w)
		for l := range ops {
			ops[l] = newTestEO(t, 23, 0.25)
		}
		xs, sts, errs := onLanes(ops, solve)
		for l := range ops {
			if errs[l] != nil {
				t.Fatalf("workers=%d lane %d: %v", w, l, errs[l])
			}
			if sts[l].Iterations != refSt.Iterations || sts[l].ReliableUpdates != refSt.ReliableUpdates {
				t.Fatalf("workers=%d lane %d: %d iters/%d updates vs %d/%d alone", w, l,
					sts[l].Iterations, sts[l].ReliableUpdates, refSt.Iterations, refSt.ReliableUpdates)
			}
			bitwiseEqual(t, "cgne-mixed", xs[l], refX)
			sameResiduals(t, "cgne-mixed", sts[l].Residuals, refSt.Residuals)
		}
	}
}

// TestConcurrentSolvesBitwise runs two solves at once, as two lanes do,
// each on operators of its own. Each must still produce the lone solve's
// iterate to the bit. The iteration cap keeps the solves short; an
// unconverged iterate is as deterministic as a converged one.
func TestConcurrentSolvesBitwise(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	solve := func(seed int64) []complex128 {
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
		b := randRHS(rand.New(rand.NewSource(seed)), op.Size())
		x, _, err := CGNEMixed(context.Background(), op, dirac.NewMobiusEO32(op), b,
			Params{Tol: 1e-8, Precision: Single, MaxIter: 6})
		if err != nil && !errors.Is(err, ErrMaxIter) {
			t.Error(err)
		}
		return x
	}
	seeds := []int64{31, 32}
	ref := make([][]complex128, len(seeds))
	for i, seed := range seeds {
		ref[i] = solve(seed)
	}
	got := make([][]complex128, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = solve(seed)
		}()
	}
	wg.Wait()
	for i := range seeds {
		bitwiseEqual(t, "concurrent cgne-mixed", got[i], ref[i])
	}
}

// TestCGNEIterationDoesNotAllocate: a CGNE iteration on the flat Wilson
// operator - the wire coordinator's reference solve - allocates nothing
// with a lane budget of two cores, so a solve's allocations are its
// set-up alone, whatever its iteration count.
func TestCGNEIterationDoesNotAllocate(t *testing.T) {
	defer func(n int) { linalg.DefaultWorkers = n }(linalg.DefaultWorkers)
	linalg.DefaultWorkers = 2
	w := dirac.NewWilson(gauge.NewWeak(lattice.MustNew(4, 4, 4, 8), 9, 0.3), 0.1)
	b := randRHS(rand.New(rand.NewSource(9)), w.Size())
	solve := func(iters int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, st, err := CGNE(context.Background(), w, b, Params{Tol: 1e-14, MaxIter: iters}); !errors.Is(err, ErrMaxIter) || st.Iterations != iters {
				t.Fatalf("%d iterations, error %v: want the cap, ErrMaxIter", st.Iterations, err)
			}
		})
	}
	if short, long := solve(5), solve(25); long != short {
		t.Fatalf("a solve of 25 iterations allocates %v times, one of 5 %v: %v allocations an iteration", long, short, (long-short)/20)
	}
}
