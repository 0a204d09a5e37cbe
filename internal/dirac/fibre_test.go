package dirac

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// bitsOf is a float's bit pattern, in its own width.
func bitsOf[F float32 | float64](x F) uint64 {
	switch v := any(x).(type) {
	case float32:
		return uint64(math.Float32bits(v))
	case float64:
		return math.Float64bits(v)
	}
	panic("unreachable")
}

// sameOrNaN is bit equality, except that a NaN only has to meet a NaN:
// which of two NaN operands an instruction passes on depends on the
// operand order the compiler picks for the Go body, and the compiler may
// spell a product by -1 as a sign flip, which flips a NaN's sign too; a
// NaN's payload and sign are not part of the result (DESIGN.md s19).
func sameOrNaN[F float32 | float64](a, b F) bool {
	return bitsOf(a) == bitsOf(b) || a != a && b != b
}

// fibreSpecials are the values besides Gaussian ones that the fibre bodies
// are held to the Go bodies on: infinities, a NaN, both zeros, and
// subnormals of the precision.
func fibreSpecials[F float32 | float64]() []F {
	var tiny, big F
	switch p := any(&tiny).(type) {
	case *float32:
		*p = math.SmallestNonzeroFloat32
		big = F(math.Float32frombits(0x007fffff)) // the largest subnormal
	case *float64:
		*p = math.SmallestNonzeroFloat64
		big = F(math.Float64frombits(0x000fffffffffffff))
	}
	negZero := F(math.Copysign(0, -1))
	return []F{F(math.Inf(1)), negZero, tiny, F(math.NaN()), -tiny, big, F(math.Inf(-1)), 0, -big}
}

// fibreField is a lane-major scratch field of k: Gaussian in the real
// lanes with a special value at every 13th element and one in each site's
// last slice, the lane next to the padding; +0 in the padding lanes.
func fibreField[F float32 | float64](k *schur[F], rng *rand.Rand) []F {
	specials := fibreSpecials[F]()
	f := make([]F, k.halfVol*k.fib)
	e := 0
	for i := 0; i < k.halfVol; i++ {
		fb := f[i*k.fib:][:k.fib]
		for _, l := range k.lane {
			o := slot(fb, l)
			for p := 0; p < slotLen; p += laneW {
				o[p] = F(rng.NormFloat64())
				if e%13 == 0 {
					o[p] = specials[e/13%len(specials)]
				}
				e++
			}
		}
		slot(fb, k.lane[k.ls-1])[i%(2*SpinorLen)*laneW] = specials[i%len(specials)]
	}
	return f
}

// payloadNaN is a quiet NaN of the precision with a payload no arithmetic
// makes up.
func payloadNaN[F float32 | float64]() F {
	var f F
	switch p := any(&f).(type) {
	case *float32:
		*p = math.Float32frombits(0x7fc01234)
	case *float64:
		*p = math.Float64frombits(0x7ff8000000001234)
	}
	return f
}

// nanField is a lane-major scratch field of k: Gaussian in the real lanes,
// +0 in the padding lanes, and one payloadNaN a site: in site i, slice
// i%ls, component (i/2+shift)%12, real part in even sites and imaginary
// part in odd ones. It is the input on which the fibre
// bodies are held to the Go bodies NaN payloads and signs included. On
// fibreField's specials an infinity times a zero weight makes a NaN that
// can meet a fibre's NaN in one sum, and which of the two passes on follows
// the operand order gc picks for the Go body, which one build may pick
// differently from another: there a NaN only has to meet a NaN. Here none
// meet where x and y have shifts six apart: a fifth-dimension pass mixes
// the slices of one plane, and BAxpy's complex product by -1 the two
// planes of one component, and x's NaN and y's are in different components
// in every site.
func nanField[F float32 | float64](k *schur[F], rng *rand.Rand, shift int) []F {
	f := make([]F, k.halfVol*k.fib)
	for i := 0; i < k.halfVol; i++ {
		fb := f[i*k.fib:][:k.fib]
		for _, l := range k.lane {
			o := slot(fb, l)
			for p := 0; p < slotLen; p += laneW {
				o[p] = F(rng.NormFloat64())
			}
		}
		slot(fb, k.lane[i%k.ls])[(2*((i/2+shift)%12)+i%2)*laneW] = payloadNaN[F]()
	}
	return f
}

// checkFibreBodies holds every vector body of vec to its Go body on k: each
// pass over every site of the parity block, from the same inputs, must
// leave the same scratch field (padding lanes included) or caller field,
// to the bit - NaN payloads included where one NaN reaches a result, a NaN
// meeting a NaN where two can (nanField). The hop is held to sameOrNaN
// on both inputs: it sums the neighbours of other sites, whose NaNs meet,
// and its register-blocked body does not order those sums as gc orders the
// Go body's.
func checkFibreBodies[F float32 | float64](t *testing.T, tag string, k *schur[F], vec *vecBodies[F]) {
	t.Helper()
	defer func(v *vecBodies[F]) { k.vec = v }(k.vec)
	rng := rand.New(rand.NewSource(int64(k.ls)))
	x, y := fibreField(k, rng), fibreField(k, rng)
	half := k.halfVol * SpinorLen
	field := make([]cx[F], k.ls*half)
	specials := fibreSpecials[F]()
	for j := range field {
		field[j] = cx[F]{F(rng.NormFloat64()), F(rng.NormFloat64())}
		if j%11 == 0 {
			field[j].im = specials[j/11%len(specials)]
		}
	}
	inputs := []struct {
		name  string
		x, y  []F
		meets bool // two NaNs can meet in one operation
	}{
		{"specials", x, y, true},
		{"NaN", nanField(k, rng, 0), nanField(k, rng, 6), false},
	}
	for _, in := range inputs {
		x, y := in.x, in.y
		for _, dagger := range []bool{false, true} {
			passes := []struct {
				name  string
				moves bool // data movement only: no two NaNs meet
				pass  func(out []F, fieldOut []cx[F], i int)
			}{
				{"AInv", false, func(out []F, _ []cx[F], i int) { k.fibreAInv(out, x, i, dagger) }},
				{"B", false, func(out []F, _ []cx[F], i int) { k.fibreBA(out, x, i, k.b5, k.c5, dagger) }},
				{"A", false, func(out []F, _ []cx[F], i int) { k.fibreBA(out, x, i, k.a, k.c, dagger) }},
				{"BAxpy", false, func(out []F, _ []cx[F], i int) { k.fibreBAxpy(out, x, i, k.a, k.c, dagger) }},
				{"Hop", false, func(out []F, _ []cx[F], i int) { k.fibreHop(out, x, 1, i, dagger) }},
				{"load", true, func(out []F, _ []cx[F], i int) { k.load(out, i, [2][]cx[F]{field}, i*SpinorLen, half) }},
				{"store", true, func(_ []F, fo []cx[F], i int) { k.store([2][]cx[F]{fo}, i*SpinorLen, half, x, i) }},
			}
			for _, c := range passes {
				run := func(v *vecBodies[F]) ([]F, []cx[F]) {
					k.vec = v
					out, fo := slices.Clone(y), slices.Clone(field)
					for i := 0; i < k.halfVol; i++ {
						c.pass(out, fo, i)
					}
					return out, fo
				}
				want, wantField := run(nil)
				got, gotField := run(vec)
				what := fmt.Sprintf("%s %s dagger=%v %s", tag, in.name, dagger, c.name)
				same := func(a, b F) bool { return bitsOf(a) == bitsOf(b) }
				if c.name == "Hop" || in.meets && !c.moves {
					same = sameOrNaN[F]
				}
				for j := range want {
					if !same(got[j], want[j]) {
						t.Fatalf("%s: scratch element %d (site %d, offset %d) is %v (%#x), Go body has %v (%#x)",
							what, j, j/k.fib, j%k.fib, got[j], bitsOf(got[j]), want[j], bitsOf(want[j]))
					}
				}
				for j := range wantField {
					if !same(gotField[j].re, wantField[j].re) || !same(gotField[j].im, wantField[j].im) {
						t.Fatalf("%s: field element %d is %v, Go body has %v", what, j, gotField[j], wantField[j])
					}
				}
			}
		}
	}
}

// TestLaneFibreBodiesMatchGoBitForBit holds each float64 vector body of
// the build - the hop and the fifth-dimension passes - to its portable Go
// body at every Ls from 1 to 9 (one block, a partial one, two and three
// blocks), plain and dagger, at M 0.15 and at M 0, where the inverses of A
// have exact zeros that a body must skip rather than multiply. The fibres
// carry infinities, a NaN, -0 and subnormals, also in the last real lane
// beside the padding. TestPairBodiesMatchSingleBitForBit holds the
// float32 bodies, all of the pair layout.
func TestLaneFibreBodiesMatchGoBitForBit(t *testing.T) {
	if !linalg.HasAVX {
		t.Skip("the host has no AVX: the build runs the Go bodies only")
	}
	if vec64 == nil {
		t.Fatal("the host has AVX, but the build has no float64 vector bodies")
	}
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewRandom(g, 3)
	for _, mass := range []float64{0.15, 0} {
		for ls := 1; ls <= 9; ls++ {
			m, err := NewMobius(cfg, MobiusParams{Ls: max(ls, 2), M5: 1.3, B5: 1.25, C5: 0.25, M: mass})
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewMobiusEO(m)
			if err != nil {
				t.Fatal(err)
			}
			if ls == 1 {
				oneSlice(&p.schur)
			}
			checkFibreBodies(t, fmt.Sprintf("M=%v Ls=%d", mass, ls), &p.schur, vec64)
		}
	}
}

// oneSlice narrows k, built at Ls 2, to a single slice, which no Mobius
// operator has but every body must handle: chi is the slice itself across
// the wrap, in both sectors, so A = a - m*c and its inverse one number.
func oneSlice[F float32 | float64](k *schur[F]) {
	k.ls = 1
	k.minvP = []F{1 / (k.a - k.m*k.c)}
	k.minvM = k.minvP
	k.setLayout()
	k.own()
}

// paddingClean fails unless every padding lane of k's scratch is +0, in
// the pair layout both systems' lanes.
func paddingClean[F float32 | float64](t *testing.T, what string, k *schur[F]) {
	t.Helper()
	halves, fib := 1, k.fib
	if k.pair != nil {
		halves, fib = 2, 2*k.fib
	}
	for name, f := range map[string][]F{"t1": k.t1, "t2": k.t2, "t3": k.t3} {
		for i := 0; i < k.halfVol; i++ {
			for s := k.ls; s < k.groups*laneW; s++ {
				for p := 0; p < 2*SpinorLen; p++ {
					for h := 0; h < halves; h++ {
						x := f[i*fib+((s/laneW*2*SpinorLen+p)*halves+h)*laneW+s%laneW]
						if bitsOf(x) != 0 {
							t.Fatalf("%s: %s site %d half %d padding lane %d plane %d is %v (%#x)",
								what, name, i, h, s, p, x, bitsOf(x))
						}
					}
				}
			}
		}
	}
}

// TestLanePaddingStaysZero checks what DESIGN.md s19 asserts: the padding
// lanes of the lane-major scratch start at +0 and stay +0, to the bit,
// after every pass of Apply, ApplyDagger, ApplyNormal, PrepareSource and
// Reconstruct, on both body sets, at Ls that leave padding in a block (2,
// 3, 5, 6), on a field with an infinity and a NaN in it.
func TestLanePaddingStaysZero(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewRandom(g, 4)
	for _, ls := range []int{2, 3, 5, 6} {
		m, err := NewMobius(cfg, MobiusParams{Ls: ls, M5: 1.3, B5: 1.25, C5: 0.25, M: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewMobiusEO(m)
		if err != nil {
			t.Fatal(err)
		}
		q := NewMobiusEO32(p)
		n := p.HalfSize()
		src, dst, tmp := poisonedInput(n), make([]complex128, n), make([]complex128, n)
		src32, dst32, tmp32 := make([]complex64, n), make([]complex64, n), make([]complex64, n)
		for j, v := range src {
			src32[j] = complex64(v)
		}
		eta := poisonedInput(m.Size())
		bhat, etaOdd := make([]complex128, n), make([]complex128, n)
		p.GatherParity5D(0, eta, bhat)
		p.GatherParity5D(1, eta, etaOdd)
		full := make([]complex128, m.Size())
		p.ScatterParity5D(0, src, full)
		type pass struct {
			st       schurStage
			dst, src []complex128
		}
		type pass32 struct {
			st       schurStage
			dst, src []complex64
		}
		entries := map[string][]pass{
			"Apply":         {{stageB, nil, src}, {stageInner, nil, nil}, {stageOuter, dst, src}},
			"ApplyDagger":   {{stageLoad, nil, src}, {stageInnerDag, nil, nil}, {stageOuterDag, dst, src}},
			"ApplyNormal":   {{stageB, nil, src}, {stageInner, nil, nil}, {stageOuter, tmp, src}, {stageInnerDag, nil, nil}, {stageOuterDag, dst, tmp}},
			"PrepareSource": {{stageFibre, nil, etaOdd}, {stagePrepare, bhat, nil}},
			"Reconstruct":   {{stageB, nil, src}, {stageRecon, full, etaOdd}},
		}
		entries32 := map[string][]pass32{
			"Apply":       {{stageB, nil, src32}, {stageInner, nil, nil}, {stageOuter, dst32, src32}},
			"ApplyDagger": {{stageLoad, nil, src32}, {stageInnerDag, nil, nil}, {stageOuterDag, dst32, src32}},
			"ApplyNormal": {{stageB, nil, src32}, {stageInner, nil, nil}, {stageOuter, tmp32, src32}, {stageInnerDag, nil, nil}, {stageOuterDag, dst32, tmp32}},
		}
		for _, body := range bodySets {
			// Fresh scratch: the padding lanes start at +0 in the layout
			// the set runs.
			useBodies(p, q, body)
			p.own()
			q.own()
			for name, passes := range entries {
				for j, ps := range passes {
					p.run(ps.st, ps.dst, ps.src)
					paddingClean(t, fmt.Sprintf("Ls=%d %s %s pass %d", ls, body, name, j), &p.schur)
				}
			}
			for name, passes := range entries32 {
				for j, ps := range passes {
					q.run(ps.st, ps.dst, ps.src)
					paddingClean(t, fmt.Sprintf("Ls=%d %s %s32 pass %d", ls, body, name, j), &q.schur)
				}
			}
		}
	}
}
