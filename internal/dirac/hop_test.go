package dirac_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"femtoverse/internal/dirac"
	"femtoverse/internal/domain"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
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
// generic hop of staged_ref_test.go): the flat Wilson operator at every
// launch split, the rank-local stencil of package domain on every rank of
// several grids, and a CGNE solve. On 4^4 every site has eight distinct
// neighbours, so the point input isolates each of the eight directions at
// a site of its own, and 256 sites are past linalg.For's serial cut, so
// workers > 1 really split. The operators are equal to the bit except on
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
			for _, workers := range []int{1, 2, 3} {
				w.Workers = workers
				if dagger {
					w.ApplyDagger(got, src)
				} else {
					w.Apply(got, src)
				}
				check(fmt.Sprintf("%s Wilson workers=%d", op, workers))
			}
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
