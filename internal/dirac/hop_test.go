package dirac_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"femtoverse/internal/dirac"
	"femtoverse/internal/domain"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/pairedtest"
	"femtoverse/internal/solver"
)

// genericWilson is the flat operator composed from the generic hop, as a
// solver.Linear.
type genericWilson struct{ w *dirac.Wilson }

func (g genericWilson) Size() int                         { return g.w.Size() }
func (g genericWilson) Apply(dst, src []complex128)       { dirac.RefWilson(g.w, dst, src, false) }
func (g genericWilson) ApplyDagger(dst, src []complex128) { dirac.RefWilson(g.w, dst, src, true) }

// zeroSignDiffs counts the elements of got whose bits differ from want's,
// and fails unless every such element has want's value: the two may
// differ in the sign of a zero part and nowhere else.
func zeroSignDiffs(t *testing.T, what string, got, want []complex128) int {
	t.Helper()
	n := 0
	for i := range want {
		if math.Float64bits(real(got[i])) == math.Float64bits(real(want[i])) &&
			math.Float64bits(imag(got[i])) == math.Float64bits(imag(want[i])) {
			continue
		}
		if got[i] != want[i] {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
		n++
	}
	return n
}

// boundary pins, per input and operator, the elements of the 4^4 lattice
// below where the specialised hop's output differs from the generic one's
// in the sign of an exact zero (DESIGN.md s19, fact 5). Every other input
// and operator is equal to the bit.
var boundary = map[string]int{
	"point ApplyDagger":   744,
	"negzero Apply":       930,
	"negzero ApplyDagger": 178,
}

// TestWilsonHopMatchesGenericBitForBit holds every user of the specialised
// hop to the generic composition it replaced (RefWilson, built on the
// generic hop of staged_ref_test.go): the flat Wilson operator, the
// rank-local stencil of package domain on every rank of several grids,
// and a CGNE solve. On 4^4 every site has eight distinct neighbours, so
// the point input isolates each of the eight directions at a site of its
// own. The operators are equal to the bit except on
// the zeros boundary pins, which differ in sign only, and the rank stencil
// equals the flat operator on those too; the solve from the point input,
// the one input among them a solve starts from, is equal to the bit.
func TestWilsonHopMatchesGenericBitForBit(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 4)
	u := gauge.NewWeak(g, 19, 0.3)
	const mass = 0.1
	w := dirac.NewWilson(u, mass)
	n := w.Size()
	inputs := dirac.SchurInputs(n)
	negZero := make([]complex128, n)
	for i := range negZero {
		negZero[i] = complex(math.Copysign(0, -1), math.Copysign(0, -1))
	}
	inputs["negzero"] = negZero
	var dists []*domain.Dist
	for _, grid := range [][lattice.NDim]int{{1, 1, 1, 2}, {1, 1, 2, 2}, {2, 2, 2, 2}} {
		d, err := domain.NewDist(u, grid, mass)
		if err != nil {
			t.Fatal(err)
		}
		dists = append(dists, d)
	}
	want, got, flat := make([]complex128, n), make([]complex128, n), make([]complex128, n)
	for name, src := range inputs {
		for _, dagger := range []bool{false, true} {
			op := name + " Apply"
			if dagger {
				op += "Dagger"
			}
			dirac.RefWilson(w, want, src, dagger)
			check := func(tag string) {
				t.Helper()
				if d := zeroSignDiffs(t, tag, got, want); d != boundary[op] {
					t.Errorf("%s: %d elements differ from the generic composition in a zero's sign, want %d", tag, d, boundary[op])
				}
			}
			if dagger {
				w.ApplyDagger(got, src)
			} else {
				w.Apply(got, src)
			}
			check(op + " Wilson")
			copy(flat, got)
			for _, d := range dists {
				if dagger {
					d.ApplyDagger(got, src)
				} else {
					d.Apply(got, src)
				}
				tag := fmt.Sprintf("%s Dist %v", op, d.Grid)
				check(tag)
				// Zeros included, the rank stencil is the flat operator.
				if n := zeroSignDiffs(t, tag+" against Wilson", got, flat); n != 0 {
					t.Fatalf("%s: %d elements differ from the flat operator in a zero's sign", tag, n)
				}
			}
		}
	}

	p := solver.Params{Tol: 1e-9, RecordResiduals: true}
	wantX, wantSt, err := solver.CGNE(context.Background(), genericWilson{w}, inputs["point"], p)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []solver.Linear{w, dists[len(dists)-1]} {
		x, st, err := solver.CGNE(context.Background(), op, inputs["point"], p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Iterations != wantSt.Iterations || len(st.Residuals) != len(wantSt.Residuals) {
			t.Fatalf("%T: %d iterations, generic %d", op, st.Iterations, wantSt.Iterations)
		}
		for i := range st.Residuals {
			if math.Float64bits(st.Residuals[i]) != math.Float64bits(wantSt.Residuals[i]) {
				t.Fatalf("%T: residual %d is %v, generic %v", op, i, st.Residuals[i], wantSt.Residuals[i])
			}
		}
		if d := zeroSignDiffs(t, fmt.Sprintf("%T solve", op), x, wantX); d != 0 {
			t.Fatalf("%T: %d solution elements differ from the generic solve in a zero's sign", op, d)
		}
	}
}

// sameParts is SameOrNaN on both parts of a complex.
func sameParts(a, b complex128) bool {
	return dirac.SameOrNaN(real(a), real(b)) && dirac.SameOrNaN(imag(a), imag(b))
}

// siteInputs are the fields the site bodies are held to each other on:
// SchurInputs' dense, point and mixed-zero fields, a field of -0, and one
// with FibreSpecials' infinities, NaN, zeros and subnormals among normal
// values.
func siteInputs(n int) map[string][]complex128 {
	inputs := dirac.SchurInputs(n)
	negZero, special := make([]complex128, n), make([]complex128, n)
	rng := rand.New(rand.NewSource(35))
	odd := dirac.FibreSpecials()
	for i := range negZero {
		negZero[i] = complex(math.Copysign(0, -1), math.Copysign(0, -1))
		special[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		if i%5 == 0 {
			special[i] = complex(odd[rng.Intn(len(odd))], odd[rng.Intn(len(odd))])
		}
	}
	inputs["negzero"], inputs["special"] = negZero, special
	return inputs
}

// TestWilsonSiteBodiesMatchBitForBit holds the 4-D site body the build
// runs to the Go body on whole fields (sameParts): the flat Wilson
// operator, Apply and ApplyDagger; and the
// rank-local stencil of package domain on every rank of three splits of
// the wire-2rank lattice (4^3 x 8), its source and every ghost face filled
// from the field, so that legs read ghosts as well as the local source.
// On a host without AVX both sides run the Go body.
func TestWilsonSiteBodiesMatchBitForBit(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	u := gauge.NewRandom(g, 35)
	const mass = 0.1
	w := dirac.NewWilson(u, mass)
	n := w.Size()
	check := func(tag string, got, want []complex128) {
		t.Helper()
		for i := range want {
			if !sameParts(got[i], want[i]) {
				t.Fatalf("%s: element %d is %v, Go body %v", tag, i, got[i], want[i])
			}
		}
	}
	got, want := make([]complex128, n), make([]complex128, n)
	for name, src := range siteInputs(n) {
		for _, dagger := range []bool{false, true} {
			apply := w.Apply
			if dagger {
				apply = w.ApplyDagger
			}
			restore := dirac.UseGoSite()
			apply(want, src)
			restore()
			apply(got, src)
			check(fmt.Sprintf("%s Wilson dagger=%v", name, dagger), got, want)
		}
		for _, grid := range [][lattice.NDim]int{{1, 1, 1, 2}, {1, 1, 2, 2}, {2, 2, 2, 2}} {
			specs, err := domain.BuildSpecs(u, grid, mass)
			if err != nil {
				t.Fatal(err)
			}
			for r := range specs {
				sub, err := domain.NewSub(specs[r])
				if err != nil {
					t.Fatal(err)
				}
				at := copy(sub.Src(), src)
				for mu := 0; mu < lattice.NDim; mu++ {
					if !specs[r].Partitioned(mu) {
						continue
					}
					for dir := 0; dir < 2; dir++ {
						sub.SetGhost(mu, dir, src[at:at+sub.FaceLen(mu)])
						at += sub.FaceLen(mu)
					}
				}
				stencil := func(dst []complex128) {
					sub.StencilInterior()
					sub.StencilBoundary()
					copy(dst, sub.Dst())
				}
				local := len(sub.Dst())
				restore := dirac.UseGoSite()
				stencil(want[:local])
				restore()
				stencil(got[:local])
				check(fmt.Sprintf("%s Sub %v rank %d", name, grid, r), got[:local], want[:local])
			}
		}
	}
}

// TestProbeSubRunsSiteBody is TestProbeSelectsAVXSite's other half: the
// rank-local stencil runs every site through WilsonSite's selected body,
// called on a Sub and through a Dist's ranks.
func TestProbeSubRunsSiteBody(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	u := gauge.NewRandom(g, 35)
	specs, err := domain.BuildSpecs(u, [lattice.NDim]int{1, 1, 1, 2}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := domain.NewSub(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	d, err := domain.NewDist(u, [lattice.NDim]int{1, 1, 2, 2}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := make([]complex128, d.Size()), make([]complex128, d.Size())
	calls, restore := dirac.CountSites()
	defer restore()
	sub.StencilInterior()
	sub.StencilBoundary()
	if n := calls.Load(); n != int64(len(sub.Dst())/dirac.SpinorLen) {
		t.Fatalf("Sub: %d sites ran the selected body, want %d", n, len(sub.Dst())/dirac.SpinorLen)
	}
	calls.Store(0)
	d.Apply(dst, src)
	if n := calls.Load(); n != int64(g.Vol) {
		t.Fatalf("Dist: %d sites ran the selected body, want %d", n, g.Vol)
	}
}

// BenchmarkDomainSubStencilPaired is BenchmarkDomainSubStencil's rank -
// the wire-2rank lattice, 4^3 x 8 split 1x1x1x2, rank 0, both stencil
// steps - judged in pairs: the build's site body against the Go body, the
// parent's loop of scalar hops over the same table, and an A/A
// calibration whose ratio should read 1. Run with -cpu 1 -benchtime 60x.
func BenchmarkDomainSubStencilPaired(b *testing.B) {
	g := lattice.MustNew(4, 4, 4, 8)
	specs, err := domain.BuildSpecs(gauge.NewWeak(g, 11, 0.3), [lattice.NDim]int{1, 1, 1, 2}, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := domain.NewSub(specs[0])
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i, src := 0, sub.Src(); i < len(src); i++ {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	vec := func() {
		sub.StencilInterior()
		sub.StencilBoundary()
	}
	scalar := func() {
		restore := dirac.UseGoSite()
		vec()
		restore()
	}
	for _, c := range []struct {
		name      string
		cand, ref func()
	}{
		{"site", vec, scalar},
		{"aa", vec, vec},
	} {
		b.Run(c.name, func(b *testing.B) { pairedtest.Bench(b, c.cand, c.ref) })
	}
}
