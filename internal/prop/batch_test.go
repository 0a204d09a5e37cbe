package prop

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/obs"
	"femtoverse/internal/solver"
)

// withBudget runs the test under a lane budget of n. The budget is all
// the batch looks at - linalg.DefaultWorkers, with nothing else in the
// test process computing - so this is how a test picks its lane count: n
// lanes for twelve systems, whatever the host.
func withBudget(t *testing.T, n int) {
	t.Helper()
	old := linalg.DefaultWorkers
	linalg.DefaultWorkers = n
	t.Cleanup(func() { linalg.DefaultWorkers = old })
}

// lanesIdle reports whether all n lanes of the budget are free, which
// after a batch returns means the caller and every helper have left.
func lanesIdle(n int) bool {
	got := 0
	for got < n && linalg.TryEnterLane() {
		got++
	}
	for i := 0; i < got; i++ {
		linalg.LeaveLane()
	}
	return got == n
}

func laneTestSolver(t *testing.T, prec solver.Precision) *QuarkSolver {
	t.Helper()
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewWeak(g, 11, 0.3)
	cfg.FlipTimeBoundary()
	qs := testSolver(t, cfg, 0.2)
	qs.Par.Precision, qs.Par.Tol = prec, 1e-6
	return qs
}

func digest(v []complex128) [sha256.Size]byte {
	buf := make([]byte, 16*len(v))
	for i, c := range v {
		binary.LittleEndian.PutUint64(buf[16*i:], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(buf[16*i+8:], math.Float64bits(imag(c)))
	}
	return sha256.Sum256(buf)
}

// propDigests is what a lane count must not move: the digest of every
// column of the point and the FH propagator, and the solver's totals.
type propDigests struct {
	cols                 [2 * NComp][sha256.Size]byte
	iters, solves, rests int
	flops                int64
}

func digestsOf(qs *QuarkSolver, base, fh *Propagator) propDigests {
	d := propDigests{iters: qs.TotalIterations, solves: qs.Solves, rests: qs.TotalRestarts, flops: qs.TotalFlops}
	for j := 0; j < NComp; j++ {
		d.cols[j], d.cols[NComp+j] = digest(base.Col[j]), digest(fh.Col[j])
	}
	return d
}

// refSolve5D is the reference the batch is held to: one system through
// the package's public seams, none of which the batch's lanes and slots
// run - Inject5D, PrepareSource, solver.CGNEMixed, Reconstruct - on the
// solver's own operators and parameters.
func refSolve5D(qs *QuarkSolver, ctx context.Context, b4 []complex128) ([]complex128, solver.Stats, error) {
	bhat, etaOdd := qs.EO.PrepareSource(Inject5D(b4, qs.EO.M.Ls))
	xe, st, err := solver.CGNEMixed(ctx, qs.EO, qs.Sloppy, bhat, qs.Par)
	if err != nil {
		return nil, st, err
	}
	return qs.EO.Reconstruct(xe, etaOdd), st, nil
}

// refSolver runs refSolve5D system after system on the calling goroutine
// and keeps the totals a QuarkSolver keeps.
type refSolver struct {
	qs                   *QuarkSolver
	iters, solves, rests int
	flops                int64
}

// solve4D is refSolve5D projected to 4-D, counted into the totals.
func (r *refSolver) solve4D(t *testing.T, b4 []complex128) []complex128 {
	t.Helper()
	psi5, st, err := refSolve5D(r.qs, context.Background(), b4)
	r.iters, r.flops, r.solves, r.rests = r.iters+st.Iterations, r.flops+st.Flops, r.solves+1, r.rests+st.Restarts
	if err != nil {
		t.Fatal(err)
	}
	return Project4D(psi5, r.qs.EO.M.Ls)
}

// serialReference is the point and the FH propagator by refSolve5D, one
// component after another.
func serialReference(t *testing.T, prec solver.Precision) propDigests {
	t.Helper()
	r := &refSolver{qs: laneTestSolver(t, prec)}
	g := r.qs.EO.M.W.G
	base, fh := NewPropagator(g), NewPropagator(g)
	seq := make([]complex128, len(base.Col[0]))
	for j := 0; j < NComp; j++ {
		base.Col[j] = r.solve4D(t, PointSource(g, [4]int{}, j/3, j%3))
	}
	for j := 0; j < NComp; j++ {
		SpinMul(seq, base.Col[j], linalg.AxialGamma())
		fh.Col[j] = r.solve4D(t, seq)
	}
	d := digestsOf(r.qs, base, fh)
	d.iters, d.solves, d.rests, d.flops = r.iters, r.solves, r.rests, r.flops
	return d
}

func TestLanesCannotMoveABit(t *testing.T) {
	for _, prec := range []solver.Precision{solver.Single, solver.Half} {
		want := serialReference(t, prec)
		for _, lanes := range []int{1, 2, 3, 12} {
			withBudget(t, lanes)
			qs := laneTestSolver(t, prec)
			base, err := qs.ComputePointCtx(context.Background(), [4]int{})
			if err != nil {
				t.Fatal(err)
			}
			fh, err := qs.FHPropagatorCtx(context.Background(), base, linalg.AxialGamma())
			if err != nil {
				t.Fatal(err)
			}
			// A lane takes two systems at a time: twelve fill six lanes.
			if want := min(lanes, NComp/2); len(qs.lanes) != want {
				t.Fatalf("%v: budget %d ran %d lanes, want %d", prec, lanes, len(qs.lanes), want)
			}
			if got := digestsOf(qs, base, fh); got != want {
				t.Fatalf("%v on %d lanes differs from the serial loop:\n got %+v\nwant %+v", prec, lanes, got, want)
			}
			if qs.EO.Workers != 0 || !lanesIdle(lanes) {
				t.Fatalf("%v on %d lanes: operator width %d or the budget not handed back", prec, lanes, qs.EO.Workers)
			}
		}
	}
}

func TestBatchCancelJoinsAndSolverRecovers(t *testing.T) {
	want := serialReference(t, solver.Single)
	withBudget(t, 3)
	qs := laneTestSolver(t, solver.Single)
	g := qs.EO.M.W.G
	ctx, cancel := context.WithCancel(context.Background())
	_, _, err := qs.solveBatch(ctx, NComp, func(j int, _ *lane, _ int) []complex128 {
		if j == 5 {
			cancel()
		}
		return PointSource(g, [4]int{}, j/3, j%3)
	}, Project4D)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v", err)
	}
	if !lanesIdle(3) {
		t.Fatal("a lane of the cancelled batch is still computing after it returned")
	}
	qs.TotalIterations, qs.TotalFlops, qs.Solves, qs.TotalRestarts = 0, 0, 0, 0
	base, err := qs.ComputePointCtx(context.Background(), [4]int{})
	if err != nil {
		t.Fatal(err)
	}
	fh, err := qs.FHPropagatorCtx(context.Background(), base, linalg.AxialGamma())
	if err != nil {
		t.Fatal(err)
	}
	if got := digestsOf(qs, base, fh); got != want {
		t.Fatal("the solver does not reach the reference after a cancelled batch")
	}
}

// TestBatchReportsLowestFailure poisons systems 3 and 7. Whichever lane
// fails first, the batch must report system 3 - where the serial loop
// would have stopped - so the later failure may cancel what comes after
// it but never what comes before.
func TestBatchReportsLowestFailure(t *testing.T) {
	for _, lanes := range []int{1, 2, 12} {
		withBudget(t, lanes)
		qs := laneTestSolver(t, solver.Single)
		g := qs.EO.M.W.G
		for rep := 0; rep < 5; rep++ {
			_, _, err := qs.solveBatch(context.Background(), NComp, func(j int, _ *lane, _ int) []complex128 {
				b := PointSource(g, [4]int{}, j/3, j%3)
				if j == 3 || j == 7 {
					b[len(b)/2] = complex(math.NaN(), 0)
				}
				return b
			}, Project4D)
			if !errors.Is(err, solver.ErrDiverged) || !strings.Contains(err.Error(), "system 3 of 12") {
				t.Fatalf("%d lanes: got %v, want system 3's divergence", lanes, err)
			}
			if !lanesIdle(lanes) {
				t.Fatal("a lane outlived the failed batch")
			}
		}
	}
}

// TestConcurrentBatchesShareTheBudget is the pool at two solve workers on
// two cores: both callers hold a lane for as long as they are in their
// batch, so neither finds a core for a helper and neither waits for the
// other.
func TestConcurrentBatchesShareTheBudget(t *testing.T) {
	withBudget(t, 2)
	solvers := []*QuarkSolver{laneTestSolver(t, solver.Single), laneTestSolver(t, solver.Single)}
	// Both batches are inside before either looks for a core - the test
	// holds the budget until they are - and neither takes its last system
	// before the other is about to: at every hand-out the budget is spent.
	linalg.EnterLane()
	linalg.EnterLane()
	var first, last sync.WaitGroup
	first.Add(2)
	last.Add(2)
	var wg sync.WaitGroup
	for _, qs := range solvers {
		wg.Add(1)
		go func(qs *QuarkSolver) {
			defer wg.Done()
			g := qs.EO.M.W.G
			_, _, err := qs.solveBatch(context.Background(), NComp, func(j int, _ *lane, _ int) []complex128 {
				switch j {
				case 0:
					first.Done()
					first.Wait()
					linalg.LeaveLane()
				case NComp - 1:
					last.Done()
					last.Wait()
				}
				return PointSource(g, [4]int{}, j/3, j%3)
			}, Project4D)
			if err != nil {
				t.Error(err)
			}
		}(qs)
	}
	wg.Wait()
	for i, qs := range solvers {
		if len(qs.lanes) != 1 || qs.Solves != NComp {
			t.Fatalf("solver %d ran %d lanes and %d solves, want 1 and %d", i, len(qs.lanes), qs.Solves, NComp)
		}
	}
}

func TestExhaustedBudgetStartsNoGoroutine(t *testing.T) {
	withBudget(t, 2)
	linalg.EnterLane() // somebody else has the other core
	defer linalg.LeaveLane()
	qs := laneTestSolver(t, solver.Single)
	g := qs.EO.M.W.G
	before := runtime.NumGoroutine()
	_, _, err := qs.solveBatch(context.Background(), NComp, func(j int, _ *lane, _ int) []complex128 {
		// Not !=: a goroutine of an earlier test may still be on its way out.
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("system %d: %d goroutines, %d before the batch", j, n, before)
		}
		return PointSource(g, [4]int{}, j/3, j%3)
	}, Project4D)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs.lanes) != 1 {
		t.Fatalf("%d lanes built with the budget spent", len(qs.lanes))
	}
}

// TestStragglerPicksUpFreedCore: a batch that starts with every core
// taken gets its helper at the first hand-out after one is freed.
func TestStragglerPicksUpFreedCore(t *testing.T) {
	withBudget(t, 2)
	linalg.EnterLane()
	qs := laneTestSolver(t, solver.Single)
	g := qs.EO.M.W.G
	_, _, err := qs.solveBatch(context.Background(), NComp, func(j int, l *lane, _ int) []complex128 {
		if j == 4 {
			if len(qs.lanes) != 1 {
				t.Errorf("%d lanes while the sibling held its core", len(qs.lanes))
			}
			linalg.LeaveLane() // the sibling configuration finishes
		}
		return PointSource(g, [4]int{}, j/3, j%3)
	}, Project4D)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs.lanes) != 2 {
		t.Fatalf("%d lanes after a core was freed, want 2", len(qs.lanes))
	}
}

// TestHelperLanesTraceOnTheirOwnTids: a traced batch on three lanes puts
// its solve spans - one per pair, carrying its twelve systems between them
// - on up to three tids of the caller's pid, and no two spans of one tid
// overlap.
func TestHelperLanesTraceOnTheirOwnTids(t *testing.T) {
	withBudget(t, 3)
	qs := laneTestSolver(t, solver.Single)
	tr := obs.NewTracer(nil)
	ctx := obs.WithScope(context.Background(), obs.NewScope(tr, 2, 5))
	if _, err := qs.ComputePointCtx(ctx, [4]int{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name     string
			PID, TID int
			TS, Dur  int64
			Args     struct{ Systems int }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	type span struct{ t0, t1 int64 }
	byTID := map[int][]span{}
	systems := 0
	for _, e := range trace.TraceEvents {
		if e.Name == "cgne-mixed" {
			if e.PID != 2 {
				t.Fatalf("solve span on pid %d", e.PID)
			}
			byTID[e.TID] = append(byTID[e.TID], span{e.TS, e.TS + e.Dur})
			systems += max(e.Args.Systems, 1)
		}
	}
	for tid, spans := range byTID {
		sort.Slice(spans, func(i, j int) bool { return spans[i].t0 < spans[j].t0 })
		for i := 1; i < len(spans); i++ {
			if spans[i].t0 < spans[i-1].t1 {
				t.Fatalf("tid %d: span %v starts inside %v", tid, spans[i], spans[i-1])
			}
		}
	}
	// A helper the scheduler starts late may find nothing left to take.
	if _, ok := byTID[5]; !ok || len(byTID) > 3 || systems != NComp {
		t.Fatalf("solve spans of %d systems on tids %v, want %d on the caller's tid 5 and at most two more", systems, byTID, NComp)
	}
}

// overflowSource is a point source scaled to the edge of float32's range:
// its sloppy stage overflows in Half and again in Single, and the solve
// finishes in Double - the escalation Half -> Single -> Double without an
// injected fault.
func overflowSource(g *lattice.Geometry) []complex128 {
	b := PointSource(g, [4]int{}, 1, 2)
	for i := range b {
		b[i] *= 1e38
	}
	return b
}

// nanSource is a point source with a NaN in it: its solve fails.
func nanSource(g *lattice.Geometry, spin int) []complex128 {
	b := PointSource(g, [4]int{}, spin, 0)
	b[len(b)/2] = complex(math.NaN(), 0)
	return b
}

// stopAfter is a context cancelled at its n-th check: a cancellation at a
// fixed iteration of whichever solve checks it.
type stopAfter struct {
	context.Context
	checks, n int
}

func (c *stopAfter) Err() error {
	if c.checks++; c.checks > c.n {
		return context.Canceled
	}
	return nil
}

// TestPairMatchesSoloSolve4D holds each system a lane solves in a pair to
// the same system solved by the reference (refSolve5D, projected): the
// field to the bit, the iterations, reliable updates and restarts, and the
// error the lane wraps - when system A escalates Half -> Single -> Double
// while B converges, when B fails, and when B's context is cancelled
// mid-pair.
func TestPairMatchesSoloSolve4D(t *testing.T) {
	qs := laneTestSolver(t, solver.Half)
	g := qs.EO.M.W.G
	point := PointSource(g, [4]int{1, 0, 0, 0}, 0, 1) // on an odd site, so the reconstruction reads etaOdd
	for _, c := range []struct {
		name string
		b4   [2][]complex128
		stop [2]int // cancel at this many context checks; 0 for never
		want func(st [2]solver.Stats, err [2]error) bool
	}{
		{"A escalates to Double", [2][]complex128{overflowSource(g), point}, [2]int{},
			func(st [2]solver.Stats, err [2]error) bool {
				return st[0].Restarts == 2 && st[0].Precision == solver.Double && st[1].Restarts == 0 && err == [2]error{}
			}},
		{"B fails", [2][]complex128{point, nanSource(g, 2)}, [2]int{},
			func(_ [2]solver.Stats, err [2]error) bool {
				return err[0] == nil && errors.Is(err[1], solver.ErrDiverged)
			}},
		{"B cancelled", [2][]complex128{point, PointSource(g, [4]int{}, 3, 2)}, [2]int{0, 9},
			func(_ [2]solver.Stats, err [2]error) bool {
				return err[0] == nil && errors.Is(err[1], context.Canceled)
			}},
	} {
		ctx := func(k int) context.Context {
			if c.stop[k] > 0 {
				return &stopAfter{Context: context.Background(), n: c.stop[k]}
			}
			return context.Background()
		}
		q, st, err := qs.lane(0).solve([2]context.Context{ctx(0), ctx(1)}, c.b4, 2, qs.Par, Project4D)
		if !c.want(st, err) {
			t.Fatalf("%s: the pair did not take the path the case is for: stats %+v, errors %v", c.name, st, err)
		}
		solo := laneTestSolver(t, solver.Half)
		for k := range c.b4 {
			psi5, wst, werr := refSolve5D(solo, ctx(k), c.b4[k])
			what := fmt.Sprintf("%s system %d", c.name, k)
			if fmt.Sprint(errors.Unwrap(err[k])) != fmt.Sprint(werr) {
				t.Fatalf("%s: error %v, alone %v", what, err[k], werr)
			}
			if st[k].Iterations != wst.Iterations || st[k].ReliableUpdates != wst.ReliableUpdates || st[k].Restarts != wst.Restarts {
				t.Fatalf("%s: stats %+v, alone %+v", what, st[k], wst)
			}
			if werr == nil && digest(q[k]) != digest(Project4D(psi5, solo.EO.M.Ls)) {
				t.Fatalf("%s: the field differs from the system solved alone", what)
			}
		}
	}
}

// TestOddBatchOfPairsMatchesSolo: a batch of five - two pairs, one of them
// escalating to Double, and a system alone - returns the fields and the
// totals of the reference five times over, on one lane and on two; so do
// Solve4D and Solve5D, each a batch of one. With systems 3 and 4
// poisoned, the second of a pair and the one alone, the batch reports
// system 3.
func TestOddBatchOfPairsMatchesSolo(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		withBudget(t, lanes)
		qs := laneTestSolver(t, solver.Half)
		g := qs.EO.M.W.G
		sources := [][]complex128{PointSource(g, [4]int{}, 0, 0), overflowSource(g)}
		// Systems 2-4: (spin, colour) 2,2 at the origin, and 3,0 and 0,1 on
		// an odd site, so that the reconstruction reads etaOdd.
		sources = append(sources, PointSource(g, [4]int{}, 2, 2),
			PointSource(g, [4]int{1, 0, 0, 0}, 3, 0), PointSource(g, [4]int{1, 0, 0, 0}, 0, 1))
		ref := &refSolver{qs: laneTestSolver(t, solver.Half)}
		want := make([][]complex128, len(sources))
		for j, b := range sources {
			want[j] = ref.solve4D(t, b)
		}
		got, err := qs.SolveBatchCtx(context.Background(), sources)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if digest(got[j]) != digest(want[j]) {
				t.Fatalf("%d lanes: system %d differs from the reference", lanes, j)
			}
		}
		if qs.TotalIterations != ref.iters || qs.TotalRestarts != ref.rests ||
			qs.TotalFlops != ref.flops || qs.Solves != ref.solves || ref.rests != 2 {
			t.Fatalf("%d lanes: totals %d iterations, %d restarts, %d flops, %d solves; reference %d, %d, %d, %d",
				lanes, qs.TotalIterations, qs.TotalRestarts, qs.TotalFlops, qs.Solves,
				ref.iters, ref.rests, ref.flops, ref.solves)
		}
		one := laneTestSolver(t, solver.Half)
		for j, b := range sources {
			wpsi5, wst, werr := refSolve5D(ref.qs, context.Background(), b)
			q, st, err := one.Solve4D(b)
			psi5, st5, err5 := one.Solve5D(b)
			if werr != nil || err != nil || err5 != nil || digest(q) != digest(want[j]) || digest(psi5) != digest(wpsi5) ||
				st.Iterations != wst.Iterations || st5.Iterations != wst.Iterations || st.Restarts != wst.Restarts || st5.Restarts != wst.Restarts {
				t.Fatalf("%d lanes: Solve4D or Solve5D of system %d differs from the reference (%v, %v, %v)", lanes, j, err, err5, werr)
			}
		}
		if one.TotalIterations != 2*ref.iters || one.Solves != 2*ref.solves {
			t.Fatalf("%d lanes: Solve4D and Solve5D counted %d iterations in %d solves, want %d in %d",
				lanes, one.TotalIterations, one.Solves, 2*ref.iters, 2*ref.solves)
		}
		if q, st, err := one.Solve4D(nanSource(g, 3)); q != nil || st.Iterations == 0 || !errors.Is(err, solver.ErrDiverged) {
			t.Fatalf("%d lanes: Solve4D of a poisoned source returned a field, %d iterations, error %v", lanes, st.Iterations, err)
		}
		sources[3], sources[4] = nanSource(g, 3), nanSource(g, 1)
		if _, err := qs.SolveBatchCtx(context.Background(), sources); !errors.Is(err, solver.ErrDiverged) || !strings.Contains(err.Error(), "system 3 of 5") {
			t.Fatalf("%d lanes: got %v, want system 3's divergence", lanes, err)
		}
		if !lanesIdle(lanes) {
			t.Fatal("a lane outlived the failed batch")
		}
	}
}
