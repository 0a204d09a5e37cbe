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

// interleave is the pair field of two lane-major scratch fields: site
// by site and block by block, each plane of a followed by the same plane
// of b. split undoes it.
func interleave[F float32 | float64](a, b []F) []F {
	out := make([]F, 2*len(a))
	for blk := 0; blk < len(a)/laneW; blk++ {
		copy(out[2*blk*laneW:], a[blk*laneW:][:laneW])
		copy(out[(2*blk+1)*laneW:], b[blk*laneW:][:laneW])
	}
	return out
}

func split[F float32 | float64](f []F) (a, b []F) {
	a, b = make([]F, len(f)/2), make([]F, len(f)/2)
	for blk := 0; blk < len(a)/laneW; blk++ {
		copy(a[blk*laneW:][:laneW], f[2*blk*laneW:])
		copy(b[blk*laneW:][:laneW], f[(2*blk+1)*laneW:])
	}
	return a, b
}

// sameBitsF fails unless got and want are the same floats to the bit,
// NaN payloads included.
func sameBitsF[F float32 | float64](t *testing.T, what string, got, want []F) {
	t.Helper()
	for j := range want {
		if bitsOf(got[j]) != bitsOf(want[j]) {
			t.Fatalf("%s: element %d is %v (%#x), alone %v (%#x)", what, j, got[j], bitsOf(got[j]), want[j], bitsOf(want[j]))
		}
	}
}

// checkPairBodies holds every pair body of k to the single layout's body
// of the build: each pass over every site, from two systems' inputs in the
// pair layout, must leave each system's half of the output - padding lanes
// included - or each system's caller field as the single pass leaves it
// for that system alone, NaN payloads included.
func checkPairBodies(t *testing.T, tag string, k *schur[float32]) {
	t.Helper()
	defer func() { k.two = false }()
	rng := rand.New(rand.NewSource(int64(k.ls) + 7))
	xa, xb, ya, yb := fibreField(k, rng), fibreField(k, rng), fibreField(k, rng), fibreField(k, rng)
	x, y := interleave(xa, xb), interleave(ya, yb)
	half := k.halfVol * SpinorLen
	specials := fibreSpecials[float32]()
	fields := [2][]cx[float32]{}
	for s := range fields {
		fields[s] = make([]cx[float32], k.ls*half)
		for j := range fields[s] {
			fields[s][j] = cx[float32]{float32(rng.NormFloat64()), float32(rng.NormFloat64())}
			if j%(11+s) == 0 {
				fields[s][j].re = specials[j/11%len(specials)]
			}
		}
	}
	for _, dagger := range []bool{false, true} {
		passes := []struct {
			name string
			pass func(out, in []F32, fo [2][]cx[float32], i int)
		}{
			{"AInv", func(out, in []F32, _ [2][]cx[float32], i int) { k.fibreAInv(out, in, i, dagger) }},
			{"B", func(out, in []F32, _ [2][]cx[float32], i int) { k.fibreBA(out, in, i, k.b5, k.c5, dagger) }},
			{"A", func(out, in []F32, _ [2][]cx[float32], i int) { k.fibreBA(out, in, i, k.a, k.c, dagger) }},
			{"BAxpy", func(out, in []F32, _ [2][]cx[float32], i int) { k.fibreBAxpy(out, in, i, k.a, k.c, dagger) }},
			{"Hop", func(out, in []F32, _ [2][]cx[float32], i int) { k.fibreHop(out, in, 1, i, dagger) }},
			{"load", func(out, _ []F32, fo [2][]cx[float32], i int) { k.load(out, i, fo, i*SpinorLen, half) }},
			{"store", func(_, in []F32, fo [2][]cx[float32], i int) { k.store(fo, i*SpinorLen, half, in, i) }},
		}
		for _, c := range passes {
			what := fmt.Sprintf("%s dagger=%v %s", tag, dagger, c.name)
			// Each system alone, on the build's single bodies.
			var want [2][]F32
			var wantField [2][]cx[float32]
			for s, in := range [][]F32{xa, xb} {
				k.two = false
				want[s] = slices.Clone([][]F32{ya, yb}[s])
				wantField[s] = slices.Clone(fields[s])
				for i := 0; i < k.halfVol; i++ {
					c.pass(want[s], in, [2][]cx[float32]{wantField[s]}, i)
				}
			}
			k.two = true
			out := slices.Clone(y)
			fo := [2][]cx[float32]{slices.Clone(fields[0]), slices.Clone(fields[1])}
			for i := 0; i < k.halfVol; i++ {
				c.pass(out, x, fo, i)
			}
			ga, gb := split(out)
			sameBitsF(t, what+" system A", ga, want[0])
			sameBitsF(t, what+" system B", gb, want[1])
			for s := range fo {
				sameBitsF(t, fmt.Sprintf("%s field %d re", what, s), realsOf(fo[s]), realsOf(wantField[s]))
			}
		}
	}
}

// F32 shortens the pass signatures above.
type F32 = float32

// realsOf is a caller field's floats, real and imaginary parts in order.
func realsOf(v []cx[float32]) []float32 {
	out := make([]float32, 0, 2*len(v))
	for _, c := range v {
		out = append(out, c.re, c.im)
	}
	return out
}

// TestPairBodiesMatchSingleBitForBit holds each pair body of the build to
// the single layout's body it doubles, system by system, at every Ls from
// 1 to 9 (one block, a partial one, two and three), plain and dagger, at M
// 0.15 and at M 0, on the special-valued fibres of
// TestLaneFibreBodiesMatchGoBitForBit - to the bit, NaN payloads included,
// since each half runs the single body's instructions operand for operand.
func TestPairBodiesMatchSingleBitForBit(t *testing.T) {
	if pair32 == nil {
		t.Skip("the build runs no pair bodies on this host")
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
			q := NewMobiusEO32(p)
			if ls == 1 {
				oneSlice(&q.schur)
			}
			checkPairBodies(t, fmt.Sprintf("M=%v Ls=%d", mass, ls), &q.schur)
		}
	}
}

// TestPairApplyMatchesTwoSinglesBitForBit holds ApplyNormal on one, two
// and three systems - a pair through the pair bodies, and then one alone -
// to ApplyDagger of Apply on each system, to the bit - NaN payloads,
// infinities and the signs of zeros included - on random, poisoned, NaN,
// +0 and -0 fields, at Ls 2, 4, 6 and 8 (padding lanes, one block, two),
// at launch widths 1 to 3 on a parity block past linalg.For's serial cut,
// with the pair bodies and with them switched off, and on a view, whose
// scratch the single and the pair layout share; a single application
// after a pair must be unchanged too. Without pair bodies the systems run
// one at a time and the test holds the fused normal to the composed one.
func TestPairApplyMatchesTwoSinglesBitForBit(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	cfg := gauge.NewRandom(g, 6)
	for _, ls := range []int{2, 4, 6, 8} {
		m, err := NewMobius(cfg, MobiusParams{Ls: ls, M5: 1.3, B5: 1.25, C5: 0.25, M: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewMobiusEO(m)
		if err != nil {
			t.Fatal(err)
		}
		q := NewMobiusEO32(p)
		n := q.Size()
		rng := rand.New(rand.NewSource(int64(ls)))
		in := func(f []complex128) []complex64 {
			v := make([]complex64, n)
			linalg.Demote(v, f)
			return v
		}
		fill := func(c complex64) []complex64 {
			v := make([]complex64, n)
			for j := range v {
				v[j] = c
			}
			return v
		}
		negZero := complex(float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1)))
		nan := complex(float32(math.NaN()), 0)
		inputs := map[string][3][]complex64{
			"random":   {in(randField(rng, n)), in(randField(rng, n)), in(randField(rng, n))},
			"poisoned": {in(randField(rng, n)), in(poisonedInput(n)), in(randField(rng, n))},
			"zeros":    {fill(0), fill(negZero), in(randField(rng, n))},
			"nan":      {fill(nan), in(randField(rng, n)), fill(negZero)},
		}
		for name, src := range inputs {
			for _, op := range []*MobiusEO32{q, q.View()} {
				bodies := op.pair
				for _, paired := range []bool{true, false} {
					op.pair = nil
					if paired {
						op.pair = bodies
					}
					for workers := 1; workers <= 3; workers++ {
						op.Workers = workers
						tag := fmt.Sprintf("Ls=%d %s workers=%d view=%v paired=%v", ls, name, workers, op != q, op.pair != nil)
						var want, wantD [3][]complex64
						for k := range want {
							want[k], wantD[k] = make([]complex64, n), make([]complex64, n)
							op.Apply(wantD[k], src[k])
							op.ApplyDagger(want[k], wantD[k])
						}
						for systems := 1; systems <= 3; systems++ {
							got := make([][]complex64, systems)
							for k := range got {
								got[k] = make([]complex64, n)
							}
							op.ApplyNormal(got, src[:systems])
							for k := range got {
								sameBits32(t, fmt.Sprintf("%s of %d systems: system %d", tag, systems, k), got[k], want[k])
							}
							d := make([]complex64, n)
							op.Apply(d, src[0])
							sameBits32(t, fmt.Sprintf("%s of %d systems: an Apply after", tag, systems), d, wantD[0])
						}
					}
				}
				op.pair = bodies
			}
		}
	}
}

// TestPairScratchIsTheSingleScratch: an operator with pair bodies keeps one
// pair-sized scratch set, not a pair set beside a single one.
func TestPairScratchIsTheSingleScratch(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	m, err := NewMobius(gauge.NewRandom(g, 1), MobiusParams{Ls: 4, M5: 1.3, B5: 1.25, C5: 0.25, M: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewMobiusEO(m)
	if err != nil {
		t.Fatal(err)
	}
	want := p.halfVol * p.fib
	if len(p.t1) != want || p.pair != nil {
		t.Fatalf("float64 scratch %d floats (pair layout %v), want %d and none", len(p.t1), p.pair != nil, want)
	}
	v := NewMobiusEO32(p).View()
	if (v.pair != nil) != (pair32 != nil) {
		t.Fatalf("view has a pair layout: %v, the build: %v", v.pair != nil, pair32 != nil)
	}
	if v.pair != nil {
		want *= 2
	}
	for _, f := range [][]float32{v.t1, v.t2, v.t3} {
		if len(f) != want {
			t.Fatalf("view scratch field of %d floats, want %d", len(f), want)
		}
	}
}
