package dirac

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// schurInputs are the half fields every fused kernel is held to the staged
// reference on: a dense Gaussian field; a point source whose exact zeros
// (and the negative zeros gamma_5 makes of them) are where a kernel that
// is right about every non-zero value can still move a bit; and a field
// that carries every pattern of signed zeros a component can hold - (+0,
// +0), (+0, -0), (-0, +0), (-0, -0) - among non-zero values, the period 7
// so that no fifth-dimension or hop neighbour repeats a site's pattern.
func schurInputs(n int) map[string][]complex128 {
	rng := rand.New(rand.NewSource(int64(n)))
	point := make([]complex128, n)
	point[7] = 1
	point[n-2] = complex(0, -2)
	dense, zeros := randField(rng, n), randField(rng, n)
	negZero := math.Copysign(0, -1)
	for i := range zeros {
		switch i % 7 {
		case 0:
			zeros[i] = complex(0, 0)
		case 1:
			zeros[i] = complex(0, negZero)
		case 2:
			zeros[i] = complex(negZero, 0)
		case 3:
			zeros[i] = complex(negZero, negZero)
		}
	}
	return map[string][]complex128{"dense": dense, "point": point, "zeros": zeros}
}

func sameBits64(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: element %d is %v, staged reference has %v", what, i, got[i], want[i])
		}
	}
}

func sameBits32(t *testing.T, what string, got, want []complex64) {
	t.Helper()
	for i := range want {
		if math.Float32bits(real(got[i])) != math.Float32bits(real(want[i])) ||
			math.Float32bits(imag(got[i])) != math.Float32bits(imag(want[i])) {
			t.Fatalf("%s: element %d is %v (%#x, %#x), staged reference has %v (%#x, %#x)", what, i,
				got[i], math.Float32bits(real(got[i])), math.Float32bits(imag(got[i])),
				want[i], math.Float32bits(real(want[i])), math.Float32bits(imag(want[i])))
		}
	}
}

// lanesAs64 and lanesAs32 copy a lane view of a field out as complex
// numbers.
func lanesAs64(v []cx[float64]) []complex128 {
	out := make([]complex128, len(v))
	for i, c := range v {
		out[i] = complex(c.re, c.im)
	}
	return out
}

func lanesAs32(v []cx[float32]) []complex64 {
	out := make([]complex64, len(v))
	for i, c := range v {
		out[i] = complex(c.re, c.im)
	}
	return out
}

// bodySets are the two configurations a Schur operator runs in: the
// build's (on an AVX host the YMM bodies of schur_amd64.s for float64, and
// the pair layout for float32, a lone system as both halves of a pair) and
// the portable Go bodies a system at a time, which an amd64 host without
// AVX and every other architecture run, and which clearing the operator's
// vec and pair swaps in. Without AVX both are the Go bodies.
var bodySets = []string{"build", "go"}

// useBodies points p's and q's kernels, and every view made of them
// afterwards, at the named body set.
func useBodies(p *MobiusEO, q *MobiusEO32, set string) {
	p.vec = vec64
	q.setPair(pair32)
	if set == "go" {
		p.vec, q.pair = nil, nil
	}
}

// TestFusedSchurMatchesStagedBitForBit holds the fused site loops to the
// staged composition they replaced, bit for bit, over the shapes that
// could tell them apart: Ls that fill the four lanes of a block, leave
// some of them padding (2, 3, 5) or take two blocks (5, 8); lattices with
// extent-2 directions (where the forward and the backward neighbour are
// the same site) and one of 512 sites a parity; both body sets; and dense
// as well as exactly-zero inputs. The large lattice runs every Ls but the
// partial group of 3, which the small lattices already hold.
func TestFusedSchurMatchesStagedBitForBit(t *testing.T) {
	for _, dims := range [][4]int{{2, 2, 2, 4}, {4, 2, 2, 2}, {2, 4, 8, 16}} {
		g := lattice.MustNew(dims[0], dims[1], dims[2], dims[3])
		cfg := gauge.NewRandom(g, int64(dims[1]+dims[3]))
		lss := []int{2, 3, 4, 5, 8}
		if g.Vol > 64 {
			lss = []int{2, 4, 5, 8}
		}
		for _, ls := range lss {
			m, err := NewMobius(cfg, MobiusParams{Ls: ls, M5: 1.3, B5: 1.25, C5: 0.25, M: 0.15})
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewMobiusEO(m)
			if err != nil {
				t.Fatal(err)
			}
			q := NewMobiusEO32(p)
			if linalg.HasAVX && (p.vec == nil || q.pair == nil) {
				t.Fatal("the host has AVX, but the build runs no vector bodies")
			}
			n := p.HalfSize()
			for name, src := range schurInputs(n) {
				src32 := make([]complex64, n)
				linalg.Demote(src32, src)
				full := make([]complex128, m.Size())
				p.ScatterParity5D(0, src, full)
				p.ScatterParity5D(1, src, full)

				want, wantDag := make([]complex128, n), make([]complex128, n)
				p.refApply(want, src)
				p.refApplyDagger(wantDag, src)
				want32, wantDag32 := make([]complex64, n), make([]complex64, n)
				q.refApply(want32, src32)
				q.refApplyDagger(wantDag32, src32)
				wantBhat, wantOdd := p.refPrepareSource(full)
				wantFull := p.refReconstruct(src, wantOdd)

				for _, body := range bodySets {
					useBodies(p, q, body)
					tag := fmt.Sprintf("%v Ls=%d %s %s", dims, ls, name, body)
					got := make([]complex128, n)
					p.Apply(got, src)
					sameBits64(t, tag+" Apply", got, want)
					p.ApplyDagger(got, src)
					sameBits64(t, tag+" ApplyDagger", got, wantDag)
					p.ApplyNormal([][]complex128{got}, [][]complex128{src})
					sameBits64(t, tag+" ApplyNormal Apply", lanesAs64(p.mid[0]), want)
					tmp := make([]complex128, n)
					p.ApplyDagger(tmp, want)
					sameBits64(t, tag+" ApplyNormal", got, tmp)
					got32 := make([]complex64, n)
					q.Apply(got32, src32)
					sameBits32(t, tag+" Apply32", got32, want32)
					q.ApplyDagger(got32, src32)
					sameBits32(t, tag+" ApplyDagger32", got32, wantDag32)
					q.ApplyNormal([][]complex64{got32}, [][]complex64{src32})
					sameBits32(t, tag+" ApplyNormal32 Apply", lanesAs32(q.mid[0]), want32)
					tmp32 := make([]complex64, n)
					q.ApplyDagger(tmp32, want32)
					sameBits32(t, tag+" ApplyNormal32", got32, tmp32)
					bhat, odd := p.PrepareSource(full)
					sameBits64(t, tag+" PrepareSource bhat", bhat, wantBhat)
					sameBits64(t, tag+" PrepareSource odd", odd, wantOdd)
					sameBits64(t, tag+" Reconstruct", p.Reconstruct(src, odd), wantFull)
				}
			}
		}
	}
}

// poisonedInput is a dense field with an infinity and a NaN in it, on
// two slices of two sites. Where an input is not finite, the staged
// reference's generic hop (which multiplies the gamma phases out) makes
// NaNs the specialised projections do not, so such an input is held to
// the scalar kernel the lane kernel replaced instead.
func poisonedInput(n int) []complex128 {
	v := randField(rand.New(rand.NewSource(int64(n)+1)), n)
	v[5] = complex(math.Inf(1), imag(v[5]))
	v[n-SpinorLen*7+2] = complex(real(v[n-SpinorLen*7+2]), math.NaN())
	return v
}

// sameOrBothNaN64 is sameBits64 where a NaN only has to meet a NaN: which
// of two NaNs an instruction passes on depends on its operand order, which
// the compiler picks, so a payload is not part of the result.
func sameOrBothNaN64(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for i := range want {
		if !same(real(got[i]), real(want[i])) || !same(imag(got[i]), imag(want[i])) {
			t.Fatalf("%s: element %d is %v, scalar kernel has %v", what, i, got[i], want[i])
		}
	}
}

func sameOrBothNaN32(t *testing.T, what string, got, want []complex64) {
	t.Helper()
	same := func(a, b float32) bool {
		return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
	}
	for i := range want {
		if !same(real(got[i]), real(want[i])) || !same(imag(got[i]), imag(want[i])) {
			t.Fatalf("%s: element %d is %v, scalar kernel has %v", what, i, got[i], want[i])
		}
	}
}

// TestLaneSchurMatchesScalarBitForBit holds the lane kernel, on both body
// sets, to the scalar kernel it replaced (scalar_ref_test.go) on the
// input the staged reference cannot judge, a field with an infinity and a
// NaN; TestFusedSchurMatchesStagedBitForBit pins the finite inputs. With M = 0 the
// fifth-dimension inverses have exact zeros above the diagonal: a kernel
// that multiplied a zero weight instead of skipping it would carry a NaN
// into slices the scalar kernel keeps finite.
func TestLaneSchurMatchesScalarBitForBit(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 4)
	cfg := gauge.NewRandom(g, 5)
	for _, mass := range []float64{0.15, 0} {
		for _, ls := range []int{2, 3, 4, 5, 8} {
			m, err := NewMobius(cfg, MobiusParams{Ls: ls, M5: 1.3, B5: 1.25, C5: 0.25, M: mass})
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewMobiusEO(m)
			if err != nil {
				t.Fatal(err)
			}
			q := NewMobiusEO32(p)
			n := p.HalfSize()
			src := poisonedInput(n)
			src32 := make([]complex64, n)
			linalg.Demote(src32, src)
			ref, ref32 := newScalarSchur(p.schurOp), newScalarSchur(q.schurOp)
			want, wantDag := make([]complex128, n), make([]complex128, n)
			ref.apply(lanes64(want), lanes64(src))
			ref.applyDagger(lanes64(wantDag), lanes64(src))
			want32, wantDag32 := make([]complex64, n), make([]complex64, n)
			ref32.apply(lanes32(want32), lanes32(src32))
			ref32.applyDagger(lanes32(wantDag32), lanes32(src32))
			if finite(want) == 0 || finite(want) == len(want) {
				t.Fatalf("M=%v Ls=%d: %d of %d outputs finite; the poison must reach some and not all",
					mass, ls, finite(want), len(want))
			}
			for _, body := range bodySets {
				useBodies(p, q, body)
				tag := fmt.Sprintf("M=%v Ls=%d %s", mass, ls, body)
				got := make([]complex128, n)
				p.Apply(got, src)
				sameOrBothNaN64(t, tag+" Apply", got, want)
				p.ApplyDagger(got, src)
				sameOrBothNaN64(t, tag+" ApplyDagger", got, wantDag)
				got32 := make([]complex64, n)
				q.Apply(got32, src32)
				sameOrBothNaN32(t, tag+" Apply32", got32, want32)
				q.ApplyDagger(got32, src32)
				sameOrBothNaN32(t, tag+" ApplyDagger32", got32, wantDag32)
			}
		}
	}
}

// finite counts the components of v with both parts finite.
func finite(v []complex128) int {
	n := 0
	for _, c := range v {
		if !math.IsInf(real(c), 0) && !math.IsNaN(real(c)) && !math.IsInf(imag(c), 0) && !math.IsNaN(imag(c)) {
			n++
		}
	}
	return n
}

// TestWilsonDaggerMatchesGamma5Sandwich: the scratch-free ApplyDagger is
// gamma_5 Apply gamma_5 to the bit, zeros included.
func TestWilsonDaggerMatchesGamma5Sandwich(t *testing.T) {
	g := lattice.MustNew(2, 2, 4, 4)
	w := NewWilson(gauge.NewRandom(g, 3), -1.3)
	for name, src := range schurInputs(w.Size()) {
		tmp, want := make([]complex128, w.Size()), make([]complex128, w.Size())
		Gamma5(tmp, src)
		w.Apply(want, tmp)
		Gamma5(want, want)
		got := make([]complex128, w.Size())
		w.ApplyDagger(got, src)
		sameBits64(t, name, got, want)
	}
}

// TestWilsonApplyRejectsAliasedFields: the stencil cannot run in place, and
// ApplyDagger lost the scratch copy that used to make dst == src legal.
func TestWilsonApplyRejectsAliasedFields(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	w := NewWilson(gauge.NewRandom(g, 3), -1.3)
	v := make([]complex128, w.Size())
	for name, apply := range map[string]func(dst, src []complex128){"Apply": w.Apply, "ApplyDagger": w.ApplyDagger} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(v, v) did not panic", name)
				}
			}()
			apply(v, v)
		}()
	}
}

// The Schur applications sit inside the solver's iteration, on the
// calling goroutine; at any size they must not allocate.
func TestSchurApplyDoesNotAllocate(t *testing.T) {
	for _, dims := range [][4]int{{2, 2, 4, 8}, {4, 4, 4, 8}} {
		g := lattice.MustNew(dims[0], dims[1], dims[2], dims[3])
		m, err := NewMobius(gauge.NewRandom(g, 1), MobiusParams{Ls: 4, M5: 1.3, B5: 1.25, C5: 0.25, M: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewMobiusEO(m)
		if err != nil {
			t.Fatal(err)
		}
		q := NewMobiusEO32(p)
		n := p.HalfSize()
		src, dst := randField(rand.New(rand.NewSource(1)), n), make([]complex128, n)
		src32, dst32 := make([]complex64, n), make([]complex64, n)
		linalg.Demote(src32, src)
		for name, apply := range map[string]func(){
			"Apply":         func() { p.Apply(dst, src) },
			"ApplyDagger":   func() { p.ApplyDagger(dst, src) },
			"Apply32":       func() { q.Apply(dst32, src32) },
			"ApplyDagger32": func() { q.ApplyDagger(dst32, src32) },
		} {
			if a := testing.AllocsPerRun(10, apply); a != 0 {
				t.Errorf("%v %s: %v allocations per call", dims, name, a)
			}
		}
	}
}
