package domain

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/solver"
)

func randField(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func dist2(a, b []complex128) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(s)
}

// TestDistributedMatchesSharedMemory is the headline check: the four-step
// halo pipeline reproduces the shared-memory operator exactly, for every
// partitioning pattern.
func TestDistributedMatchesSharedMemory(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	cfg := gauge.NewRandom(g, 201)
	w := dirac.NewWilson(cfg, 0.1)
	rng := rand.New(rand.NewSource(1))
	src := randField(rng, w.Size())
	want := make([]complex128, w.Size())
	w.Apply(want, src)

	grids := [][4]int{
		{2, 1, 1, 1},
		{1, 1, 1, 2},
		{2, 2, 1, 1},
		{1, 2, 2, 2},
		{2, 2, 2, 2},
		{1, 1, 1, 4},
	}
	for _, grid := range grids {
		d, err := NewDist(cfg, grid, 0.1)
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		got := make([]complex128, w.Size())
		d.Apply(got, src)
		if dd := dist2(want, got); dd > 1e-11 {
			t.Fatalf("grid %v differs from shared memory by %g", grid, dd)
		}
	}
}

func TestDistributedDaggerAdjoint(t *testing.T) {
	g := lattice.MustNew(4, 2, 2, 4)
	cfg := gauge.NewRandom(g, 203)
	d, err := NewDist(cfg, [4]int{2, 1, 1, 2}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := randField(rng, d.Size())
	y := randField(rng, d.Size())
	dy := make([]complex128, d.Size())
	d.Apply(dy, y)
	ddx := make([]complex128, d.Size())
	d.ApplyDagger(ddx, x)
	lhs := linalg.Dot(x, dy)
	rhs := linalg.Dot(ddx, y)
	if del := lhs - rhs; real(del)*real(del)+imag(del)*imag(del) > 1e-18*(1+real(lhs)*real(lhs)) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

// TestSolverRunsOnDistributedOperator: the production CGNE drives the
// distributed operator through the solver.Linear interface unchanged.
func TestSolverRunsOnDistributedOperator(t *testing.T) {
	g := lattice.MustNew(4, 2, 2, 4)
	cfg := gauge.NewWeak(g, 205, 0.3)
	d, err := NewDist(cfg, [4]int{2, 1, 1, 2}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b := randField(rng, d.Size())
	x, st, err := solver.CGNE(context.Background(), d, b, solver.Params{Tol: 1e-9})
	if err != nil || !st.Converged {
		t.Fatalf("distributed solve: %v %+v", err, st)
	}
	// Cross-check the solution against the shared-memory operator.
	w := dirac.NewWilson(cfg, 0.3)
	check := make([]complex128, d.Size())
	w.Apply(check, x)
	num, den := 0.0, 0.0
	for i := range b {
		e := check[i] - b[i]
		num += real(e)*real(e) + imag(e)*imag(e)
		den += real(b[i])*real(b[i]) + imag(b[i])*imag(b[i])
	}
	if res := math.Sqrt(num / den); res > 1e-8 {
		t.Fatalf("distributed solution fails shared-memory residual: %g", res)
	}
}

func TestDecompositionBookkeeping(t *testing.T) {
	g := lattice.MustNew(8, 8, 4, 8)
	cfg := gauge.NewUnit(g)
	d, err := NewDist(cfg, [4]int{2, 2, 1, 2}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Ranks() != 8 {
		t.Fatalf("ranks %d", d.Ranks())
	}
	// Local 4x4x4x4: interior (away from 3 partitioned dims' faces) is
	// 2x2x4x2 = 32 of 256 sites.
	if f := d.InteriorFraction(); math.Abs(f-32.0/256.0) > 1e-12 {
		t.Fatalf("interior fraction %v", f)
	}
	// Halo bytes: 2 faces per partitioned dim.
	want := 2 * (4 * 4 * 4 * 3) * 12 * 16
	if hb := d.HaloBytesPerApply(); hb != want {
		t.Fatalf("halo bytes %d, want %d", hb, want)
	}
	if d.String() == "" {
		t.Fatal("empty description")
	}
}

func TestRejectsBadGrid(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 4)
	cfg := gauge.NewUnit(g)
	if _, err := NewDist(cfg, [4]int{3, 1, 1, 1}, 0.1); err == nil {
		t.Fatal("non-dividing grid accepted")
	}
	if _, err := NewDist(cfg, [4]int{4, 1, 1, 1}, 0.1); err == nil {
		t.Fatal("1-site local extent accepted")
	}
}

func TestRepeatedAppliesAreConsistent(t *testing.T) {
	// The channel plumbing must be re-usable: many applications in a row
	// (as a solver performs) stay consistent.
	g := lattice.MustNew(4, 4, 2, 4)
	cfg := gauge.NewRandom(g, 207)
	d, err := NewDist(cfg, [4]int{2, 2, 1, 1}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	w := dirac.NewWilson(cfg, 0.15)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		src := randField(rng, d.Size())
		want := make([]complex128, d.Size())
		w.Apply(want, src)
		got := make([]complex128, d.Size())
		d.Apply(got, src)
		if dd := dist2(want, got); dd > 1e-11 {
			t.Fatalf("trial %d differs by %g", trial, dd)
		}
	}
}

// TestApplyCtxCancellation checks the cooperative-cancellation contract:
// a canceled context aborts the halo pipeline with ctx.Err, and the
// operator remains usable for clean applications afterwards (no halo
// message left stranded in the channels).
func TestApplyCtxCancellation(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 4)
	cfg := gauge.NewRandom(g, 31)
	d, err := NewDist(cfg, [4]int{1, 1, 1, 2}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	src := randField(rng, d.Size())
	dst := make([]complex128, d.Size())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.ApplyCtx(ctx, dst, src); err != context.Canceled {
		t.Fatalf("canceled ApplyCtx returned %v, want context.Canceled", err)
	}

	// The operator must recover fully: a clean application afterwards
	// matches the reference exactly.
	w := dirac.NewWilson(cfg, 0.1)
	want := make([]complex128, d.Size())
	w.Apply(want, src)
	if err := d.ApplyCtx(context.Background(), dst, src); err != nil {
		t.Fatalf("post-cancel apply: %v", err)
	}
	if dd := dist2(want, dst); dd > 1e-11 {
		t.Fatalf("post-cancel apply differs by %g", dd)
	}
}

// TestHaloMessageModel pins the message shapes the halo plan implies:
// fine exchange sends one face per message, coarse one message per peer
// batching that peer's faces, and the plan's faces sum to
// HaloBytesPerApply.
func TestHaloMessageModel(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	cfg := gauge.NewUnit(g)

	// Two ranks on the time axis: both faces go to the same peer, so
	// coarse must fold them into a single two-section message.
	d2, err := NewDist(cfg, [4]int{1, 1, 1, 2}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sub := d2.ranks[0].sub
	plan := sub.HaloPeers()
	if len(plan) != 1 || len(plan[0].Faces) != 2 {
		t.Fatalf("2-rank plan %v: want one peer with two faces", plan)
	}
	face := sub.FaceLen(3) * 16
	if got := d2.HaloBytesPerApply(); got != 2*face {
		t.Fatalf("HaloBytesPerApply %d != two %d-byte faces", got, face)
	}

	// Four ranks: two distinct neighbors, coarse cannot batch across
	// destinations.
	d4, err := NewDist(cfg, [4]int{1, 1, 1, 4}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	plan = d4.ranks[0].sub.HaloPeers()
	if len(plan) != 2 || len(plan[0].Faces) != 1 || len(plan[1].Faces) != 1 || plan[0].Rank == plan[1].Rank {
		t.Fatalf("4-rank plan %v: want two peers with one face each", plan)
	}
}

// TestHaloPeersPinnedOrder pins the halo plan - peer order and the faces
// bound for each, which fix the wire frame order and the message keys the
// fault plan draws on - for every rank of four grids, as the wire worker
// grouped them when it built the plan itself. (mu, dir) pairs: mu 0..3 =
// x, y, z, t; dir 0 = lower face, 1 = upper.
func TestHaloPeersPinnedOrder(t *testing.T) {
	u := gauge.NewUnit(lattice.MustNew(4, 4, 4, 8))
	both := func(mu int) [][2]int { return [][2]int{{mu, 0}, {mu, 1}} }
	one := func(mu, dir int) [][2]int { return [][2]int{{mu, dir}} }
	for _, tc := range []struct {
		grid [4]int
		want [][]HaloPeer // per rank
	}{
		{[4]int{1, 1, 1, 2}, [][]HaloPeer{
			{{1, both(3)}},
			{{0, both(3)}},
		}},
		{[4]int{1, 1, 1, 4}, [][]HaloPeer{
			{{3, one(3, 0)}, {1, one(3, 1)}},
			{{0, one(3, 0)}, {2, one(3, 1)}},
			{{1, one(3, 0)}, {3, one(3, 1)}},
			{{2, one(3, 0)}, {0, one(3, 1)}},
		}},
		{[4]int{1, 1, 2, 2}, [][]HaloPeer{
			{{1, both(2)}, {2, both(3)}},
			{{0, both(2)}, {3, both(3)}},
			{{3, both(2)}, {0, both(3)}},
			{{2, both(2)}, {1, both(3)}},
		}},
		{[4]int{2, 2, 1, 2}, [][]HaloPeer{
			{{1, both(0)}, {2, both(1)}, {4, both(3)}},
			{{0, both(0)}, {3, both(1)}, {5, both(3)}},
			{{3, both(0)}, {0, both(1)}, {6, both(3)}},
			{{2, both(0)}, {1, both(1)}, {7, both(3)}},
			{{5, both(0)}, {6, both(1)}, {0, both(3)}},
			{{4, both(0)}, {7, both(1)}, {1, both(3)}},
			{{7, both(0)}, {4, both(1)}, {2, both(3)}},
			{{6, both(0)}, {5, both(1)}, {3, both(3)}},
		}},
	} {
		specs, err := BuildSpecs(u, tc.grid, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) != len(tc.want) {
			t.Fatalf("grid %v: %d ranks, want %d", tc.grid, len(specs), len(tc.want))
		}
		for r := range specs {
			sub, err := NewSub(specs[r])
			if err != nil {
				t.Fatal(err)
			}
			if got := sub.HaloPeers(); !reflect.DeepEqual(got, tc.want[r]) {
				t.Fatalf("grid %v rank %d: plan %v, want %v", tc.grid, r, got, tc.want[r])
			}
		}
	}
}
