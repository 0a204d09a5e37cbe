package domain

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/solver"
)

// coordsRef is the coordinate-based subdomain stencil the hop table
// replaced, kept as the reference the table is held to: every leg is
// resolved from the site's coordinates at application time, exactly as
// Sub did before NewSub precomputed them.
type coordsRef struct {
	sub *Sub
	// faceIndex[mu][dir] maps a local site to its position within the
	// face (or -1).
	faceIndex [lattice.NDim][2][]int
}

func newCoordsRef(sub *Sub) *coordsRef {
	ref := &coordsRef{sub: sub}
	for mu := 0; mu < lattice.NDim; mu++ {
		if !sub.Spec.Partitioned(mu) {
			continue
		}
		for dir := 0; dir < 2; dir++ {
			ref.faceIndex[mu][dir] = make([]int, sub.local.Vol)
			for i := range ref.faceIndex[mu][dir] {
				ref.faceIndex[mu][dir][i] = -1
			}
			for i, s := range sub.faceSites[mu][dir] {
				ref.faceIndex[mu][dir][s] = i
			}
		}
	}
	return ref
}

// neighborSpinor returns psi at the neighbor of local site s in direction
// (mu, fwd), reading the ghost face when the hop crosses the rank edge.
func (ref *coordsRef) neighborSpinor(s, mu int, fwd bool) *[spinorLen]complex128 {
	sub := ref.sub
	lc := sub.local.Coords(s)
	if sub.Spec.Partitioned(mu) {
		if fwd && lc[mu] == sub.local.Dims[mu]-1 {
			i := ref.faceIndex[mu][1][s]
			return (*[spinorLen]complex128)(sub.ghostSpin[mu][1][i*spinorLen:])
		}
		if !fwd && lc[mu] == 0 {
			i := ref.faceIndex[mu][0][s]
			return (*[spinorLen]complex128)(sub.ghostSpin[mu][0][i*spinorLen:])
		}
	}
	var nb int
	if fwd {
		nb = sub.local.Fwd(s, mu)
	} else {
		nb = sub.local.Bwd(s, mu)
	}
	return (*[spinorLen]complex128)(sub.src[nb*spinorLen:])
}

// siteStencil applies the Wilson stencil at one local site into out, its
// legs resolved from the site's coordinates.
func (ref *coordsRef) siteStencil(out *[spinorLen]complex128, s int) {
	sub := ref.sub
	lc := sub.local.Coords(s)
	var legs dirac.Legs
	for mu := 0; mu < lattice.NDim; mu++ {
		// Forward hop: (1-gamma) U_mu(x) psi(x+mu).
		legs[2*mu] = dirac.Leg{Psi: ref.neighborSpinor(s, mu, true), U: &sub.Spec.U[mu][s]}
		// Backward hop: (1+gamma) U_mu(x-mu)^dag psi(x-mu).
		var link *linalg.SU3
		if sub.Spec.Partitioned(mu) && lc[mu] == 0 {
			link = &sub.Spec.GhostLink[mu][ref.faceIndex[mu][0][s]]
		} else {
			link = &sub.Spec.U[mu][sub.local.Bwd(s, mu)]
		}
		legs[2*mu+1] = dirac.Leg{Psi: ref.neighborSpinor(s, mu, false), U: link}
	}
	dirac.WilsonSite(out, (*[spinorLen]complex128)(sub.src[s*spinorLen:]), &legs, 4+sub.Spec.Mass, false)
}

// bitDiff counts components whose float64 bit patterns differ.
func bitDiff(a, b []complex128) int {
	d := 0
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			d++
		}
	}
	return d
}

// tableGrids are the decompositions of a 4^3 x 8 lattice the table is
// checked on: one and several partitioned dimensions, grid extent 2 (both
// faces of a dimension bound for the same neighbor), grid extent 1 (the
// rank is its own neighbor and the hop wraps locally), and local extent
// 2 (every site of the dimension on a face).
var tableGrids = [][lattice.NDim]int{{1, 1, 1, 2}, {1, 1, 2, 2}, {2, 2, 2, 2}, {1, 1, 1, 4}}

// TestTableStencilMatchesCoordsBitForBit holds the table-driven stencil
// to the coordinate-based one it replaced: on every rank of every grid,
// with random source and ghost faces, every site's result is the same
// bits, and interior plus boundary cover each site exactly once.
func TestTableStencilMatchesCoordsBitForBit(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	cfg := gauge.NewRandom(g, 211)
	rng := rand.New(rand.NewSource(6))
	for _, grid := range tableGrids {
		specs, err := BuildSpecs(cfg, grid, 0.1)
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		for r := range specs {
			sub, err := NewSub(specs[r])
			if err != nil {
				t.Fatalf("grid %v rank %d: %v", grid, r, err)
			}
			for i := range sub.field {
				sub.field[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			for i := range sub.dst {
				sub.dst[i] = complex(math.NaN(), math.NaN())
			}
			sub.StencilInterior()
			sub.StencilBoundary()
			if n := len(sub.interior) + len(sub.boundary); n != sub.local.Vol {
				t.Fatalf("grid %v rank %d: interior+boundary = %d sites of %d", grid, r, n, sub.local.Vol)
			}
			ref := newCoordsRef(sub)
			var want [spinorLen]complex128
			for s := 0; s < sub.local.Vol; s++ {
				ref.siteStencil(&want, s)
				if d := bitDiff(sub.dst[s*spinorLen:(s+1)*spinorLen], want[:]); d != 0 {
					t.Fatalf("grid %v rank %d site %d: %d components differ bitwise from the coordinate stencil", grid, r, s, d)
				}
			}
		}
	}
}

// TestDistBitForBitAndNormal checks, on the same grids, that the
// distributed operator is bit-for-bit the flat one for Apply and
// ApplyDagger, and that ApplyNormal, on two systems, is bit-for-bit their
// composition on each.
func TestDistBitForBitAndNormal(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	cfg := gauge.NewRandom(g, 213)
	w := dirac.NewWilson(cfg, 0.1)
	rng := rand.New(rand.NewSource(7))
	src := randField(rng, w.Size())
	want := make([]complex128, w.Size())
	got := make([]complex128, w.Size())
	tmp := make([]complex128, w.Size())
	srcs := [][]complex128{src, randField(rng, w.Size())}
	gots := [][]complex128{got, make([]complex128, w.Size())}
	for _, grid := range tableGrids {
		d, err := NewDist(cfg, grid, 0.1)
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		w.Apply(want, src)
		d.Apply(got, src)
		if n := bitDiff(got, want); n != 0 {
			t.Fatalf("grid %v: Apply differs from flat Wilson in %d components", grid, n)
		}
		w.ApplyDagger(want, src)
		d.ApplyDagger(got, src)
		if n := bitDiff(got, want); n != 0 {
			t.Fatalf("grid %v: ApplyDagger differs from flat Wilson in %d components", grid, n)
		}
		// Twice, so the second call meets the first call's face buffers.
		for rep := 0; rep < 2; rep++ {
			d.ApplyNormal(gots, srcs)
			for k := range srcs {
				d.Apply(tmp, srcs[k])
				d.ApplyDagger(want, tmp)
				if n := bitDiff(gots[k], want); n != 0 {
					t.Fatalf("grid %v rep %d system %d: ApplyNormal differs from ApplyDagger(Apply) in %d components", grid, rep, k, n)
				}
			}
		}
	}
}

// TestCGNEThroughApplyNormalBitForBit runs the production CGNE on a Dist
// twice - once as is, a solver.Normal, so the solver takes the one-call
// normal operator, once behind a wrapper that hides ApplyNormal - and
// demands the same solution, iteration count and residual history, bit
// for bit.
func TestCGNEThroughApplyNormalBitForBit(t *testing.T) {
	g := lattice.MustNew(4, 2, 2, 4)
	cfg := gauge.NewWeak(g, 205, 0.3)
	d, err := NewDist(cfg, [4]int{2, 1, 1, 2}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := any(d).(solver.Normal[complex128]); !ok {
		t.Fatal("Dist is not a solver.Normal")
	}
	b := randField(rand.New(rand.NewSource(3)), d.Size())
	p := solver.Params{Tol: 1e-9, RecordResiduals: true}
	x, st, err := solver.CGNE(context.Background(), d, b, p)
	if err != nil {
		t.Fatal(err)
	}
	// The embedded interface promotes only Apply, ApplyDagger and Size.
	xRef, stRef, err := solver.CGNE(context.Background(), struct{ solver.Linear }{d}, b, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != stRef.Iterations || len(st.Residuals) != len(stRef.Residuals) {
		t.Fatalf("iterations %d vs %d, residual history %d vs %d entries",
			st.Iterations, stRef.Iterations, len(st.Residuals), len(stRef.Residuals))
	}
	for i := range st.Residuals {
		if math.Float64bits(st.Residuals[i]) != math.Float64bits(stRef.Residuals[i]) {
			t.Fatalf("residual %d: %v vs %v", i, st.Residuals[i], stRef.Residuals[i])
		}
	}
	if n := bitDiff(x, xRef); n != 0 {
		t.Fatalf("%d/%d solution components differ bitwise", n, len(x))
	}
}
