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
// NaN payloads included, or with nanOnly where a NaN only has to meet a
// NaN (sameOrNaN).
func sameBitsF[F float32 | float64](t *testing.T, what string, got, want []F, nanOnly bool) {
	t.Helper()
	for j := range want {
		if bitsOf(got[j]) != bitsOf(want[j]) && !(nanOnly && sameOrNaN(got[j], want[j])) {
			t.Fatalf("%s: element %d is %v (%#x), alone %v (%#x)", what, j, got[j], bitsOf(got[j]), want[j], bitsOf(want[j]))
		}
	}
}

// checkPairBodies holds every pair body of k to the single layout's Go
// body: each pass over every site, from two systems' inputs in the pair
// layout, must leave each system's half of the output - padding lanes
// included - or each system's caller field as the Go pass leaves it for
// that system alone, to the bit as checkFibreBodies holds them: NaN
// payloads included on the NaN fibres, but for the hop's.
func checkPairBodies(t *testing.T, tag string, k *schur[float32]) {
	t.Helper()
	bodies := k.pair
	defer func() { k.pair = bodies }()
	rng := rand.New(rand.NewSource(int64(k.ls) + 7))
	xa, xb, ya, yb := fibreField(k, rng), fibreField(k, rng), fibreField(k, rng), fibreField(k, rng)
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
	inputs := []struct {
		name  string
		x, y  [2][]F32
		meets bool // two NaNs can meet in one operation
	}{
		{"specials", [2][]F32{xa, xb}, [2][]F32{ya, yb}, true},
		{"NaN", [2][]F32{nanField(k, rng, 0), nanField(k, rng, 3)}, [2][]F32{nanField(k, rng, 6), nanField(k, rng, 9)}, false},
	}
	for _, in := range inputs {
		checkPairPasses(t, tag+" "+in.name, k, bodies, in.x, in.y, fields, in.meets)
	}
}

// checkPairPasses is checkPairBodies on one input, x and y per system,
// meets where two NaNs can meet in one operation.
func checkPairPasses(t *testing.T, tag string, k *schur[float32], bodies *pairOp[float32], xs, ys [2][]F32, fields [2][]cx[float32], meets bool) {
	t.Helper()
	half := k.halfVol * SpinorLen
	x, y := interleave(xs[0], xs[1]), interleave(ys[0], ys[1])
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
			// Each system alone, on the Go body.
			k.pair = nil
			var want [2][]F32
			var wantField [2][]cx[float32]
			for s, in := range xs {
				want[s] = slices.Clone(ys[s])
				wantField[s] = slices.Clone(fields[s])
				for i := 0; i < k.halfVol; i++ {
					c.pass(want[s], in, [2][]cx[float32]{wantField[s]}, i)
				}
			}
			k.pair = bodies
			out := slices.Clone(y)
			fo := [2][]cx[float32]{slices.Clone(fields[0]), slices.Clone(fields[1])}
			for i := 0; i < k.halfVol; i++ {
				c.pass(out, x, fo, i)
			}
			ga, gb := split(out)
			nanOnly := c.name == "Hop" || meets && c.name != "load" && c.name != "store"
			sameBitsF(t, what+" system A", ga, want[0], nanOnly)
			sameBitsF(t, what+" system B", gb, want[1], nanOnly)
			for s := range fo {
				sameBitsF(t, fmt.Sprintf("%s field %d re", what, s), realsOf(fo[s]), realsOf(wantField[s]), false)
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
// the single layout's Go body, system by system, at every Ls from 1 to 9
// (one block, a partial one, two and three), plain and dagger, at M 0.15
// and at M 0, on the special-valued fibres of
// TestLaneFibreBodiesMatchGoBitForBit - to the bit, NaN payloads included
// but for the hop's, since each half computes its system's Go body.
func TestPairBodiesMatchSingleBitForBit(t *testing.T) {
	if !linalg.HasAVX {
		t.Skip("the host has no AVX: the build runs the Go bodies only")
	}
	if pair32 == nil {
		t.Fatal("the host has AVX, but the build has no pair bodies")
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
// and three systems (a pair through the pair bodies, and a lone system as
// both halves of one), and an Apply and an ApplyDagger of a lone system
// after it, in both body sets, to the same configuration's Apply and
// ApplyDagger: to the bit, NaN payloads included, since each runs the
// passes its staged form runs. The build's results are also held to the Go
// configuration - every pass on its portable body, a system at a time, as
// an amd64 host without AVX and every other architecture run them - to the
// bit but that a NaN only has to meet a NaN, as the hop's does in
// checkFibreBodies. On random, poisoned, NaN (with a payload), +0 and -0
// fields, at Ls 2, 4, 6 and 8 (padding lanes, one block, two), on the 4^3
// x 8 lattice, on the operator and on a view, whose scratch the lone
// system and the pair share. A lone system and the same system in a pair
// run the same instructions and are held to each other to the bit.
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
		nan := complex(math.Float32frombits(0x7fc01234), 0)
		inputs := map[string][3][]complex64{
			"random":   {in(randField(rng, n)), in(randField(rng, n)), in(randField(rng, n))},
			"poisoned": {in(randField(rng, n)), in(poisonedInput(n)), in(randField(rng, n))},
			"zeros":    {fill(0), fill(negZero), in(randField(rng, n))},
			"nan":      {fill(nan), in(randField(rng, n)), fill(negZero)},
		}
		apply := func(f func(dst, src []complex64), src []complex64) []complex64 {
			dst := make([]complex64, n)
			f(dst, src)
			return dst
		}
		// staged is a configuration's Apply, ApplyDagger and ApplyDagger of
		// Apply of each system.
		type staged struct{ d, dag, normal [3][]complex64 }
		stagedOf := func(op *MobiusEO32, src [3][]complex64) (s staged) {
			for k := range src {
				s.d[k] = apply(op.Apply, src[k])
				s.dag[k] = apply(op.ApplyDagger, src[k])
				s.normal[k] = apply(op.ApplyDagger, s.d[k])
			}
			return s
		}
		for name, src := range inputs {
			for _, op := range []*MobiusEO32{q, q.View()} {
				bodies := op.pair
				op.pair = nil
				goStaged := stagedOf(op, src)
				op.pair = bodies
				confs := []struct {
					name string
					pair *pairOp[float32]
					own  staged
				}{{"build", bodies, stagedOf(op, src)}, {"go", nil, goStaged}}
				for _, c := range confs {
					op.pair = c.pair
					tag := fmt.Sprintf("Ls=%d %s view=%v %s", ls, name, op != q, c.name)
					var lone []complex64
					for systems := 1; systems <= 3; systems++ {
						what := fmt.Sprintf("%s of %d systems", tag, systems)
						got := make([][]complex64, systems)
						for k := range got {
							got[k] = make([]complex64, n)
						}
						op.ApplyNormal(got, src[:systems])
						for k := range got {
							sameBits32(t, fmt.Sprintf("%s: system %d", what, k), got[k], c.own.normal[k])
							sameOrBothNaN32(t, fmt.Sprintf("%s: system %d against the Go configuration", what, k), got[k], goStaged.normal[k])
						}
						if systems == 1 {
							lone = got[0]
						} else {
							sameBits32(t, what+": system 0 against it alone", got[0], lone)
						}
						d, dag := apply(op.Apply, src[0]), apply(op.ApplyDagger, src[0])
						sameBits32(t, what+": an Apply after", d, c.own.d[0])
						sameBits32(t, what+": an ApplyDagger after", dag, c.own.dag[0])
						sameOrBothNaN32(t, what+": an Apply after, against the Go configuration", d, goStaged.d[0])
						sameOrBothNaN32(t, what+": an ApplyDagger after, against the Go configuration", dag, goStaged.dag[0])
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
