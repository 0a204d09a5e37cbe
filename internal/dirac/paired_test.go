package dirac

import (
	"math/rand"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/pairedtest"
)

// BenchmarkSchurNormalPaired is BenchmarkSchurNormal's normal-equation
// application (the fh-* lattice, Ls 4, a dense source) judged in pairs:
// each precision's lane kernel, float32 a lone system through the pair
// layout, against the scalar kernel it replaced (scalar_ref_test.go); the
// lone system against a pair of two (f32-lone: a ratio of 1 is a lone
// system at the cost of a pair); float64 against itself with the vector
// hop and the Go fifth-dimension bodies (f64-fibre: what the YMM fibre
// bodies buy); float32 against float64 and against the scalar float64
// kernel; a pair against each of its systems alone (f32-pair: a ratio of
// 0.5 is the pair at the cost of one system); the fused normal - the
// dagger from the image Apply leaves in the scratch, no load pass -
// against Apply then ApplyDagger, on one float64 system (f64-fused) and on
// a float32 pair (f32-pair-fused); and an A/A calibration whose ratio
// should read 1. Run with -cpu 1 -benchtime 60x.
func BenchmarkSchurNormalPaired(b *testing.B) {
	g := lattice.MustNew(2, 2, 4, 8)
	m, err := NewMobius(gauge.NewRandom(g, 1), MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewMobiusEO(m)
	if err != nil {
		b.Fatal(err)
	}
	q := NewMobiusEO32(p)
	n := p.HalfSize()
	src, dst, tmp := randField(rand.New(rand.NewSource(2)), n), make([]complex128, n), make([]complex128, n)
	src32, dst32, tmp32 := make([]complex64, n), make([]complex64, n), make([]complex64, n)
	linalg.Demote(src32, src)
	ref64, ref32 := newScalarSchur(p.schurOp), newScalarSchur(q.schurOp)
	// hop64 is the build's vector hop alone: every fifth-dimension pass
	// runs its Go body.
	all64 := p.vec
	var hop64 *vecBodies[float64]
	if all64 != nil {
		hop64 = &vecBodies[float64]{hop: all64.hop}
	}
	one64, one32 := [2][][]complex128{{dst}, {src}}, [2][][]complex64{{dst32}, {src32}}
	vec64 := func() { p.vec = all64; p.ApplyNormal(one64[0], one64[1]) }
	lone32 := func() { q.ApplyNormal(one32[0], one32[1]) }
	goFibre64 := func() { p.vec = hop64; p.ApplyNormal(one64[0], one64[1]) }
	composed64 := func() {
		p.vec = all64
		p.Apply(tmp, src)
		p.ApplyDagger(dst, tmp)
	}
	// The pair's normal op is the mixed solver's sloppy step on two
	// systems; single32 is that step on each alone, and composedPair32 the
	// pair's Apply then its ApplyDagger, each through the pair layout.
	srcB32, dstB32, tmpB32 := make([]complex64, n), make([]complex64, n), make([]complex64, n)
	linalg.Demote(srcB32, randField(rand.New(rand.NewSource(3)), n))
	two32 := [2][][]complex64{{dst32, dstB32}, {src32, srcB32}}
	pair32 := func() { q.ApplyNormal(two32[0], two32[1]) }
	pairSrc, pairTmp, pairDst := [2][]cx[float32]{lanes32(src32), lanes32(srcB32)}, [2][]cx[float32]{lanes32(tmp32), lanes32(tmpB32)}, [2][]cx[float32]{lanes32(dst32), lanes32(dstB32)}
	composedPasses := []struct {
		st       schurStage
		dst, src [2][]cx[float32]
	}{{stageB, pairDst, pairSrc}, {stageInner, pairDst, pairSrc}, {stageOuter, pairTmp, pairSrc}, {stageLoad, pairDst, pairTmp}, {stageInnerDag, pairDst, pairTmp}, {stageOuterDag, pairDst, pairTmp}}
	composedPair32 := func() {
		for _, ps := range composedPasses {
			q.pass(ps.st, ps.dst, ps.src)
		}
	}
	single32 := func() {
		q.Apply(tmp32, src32)
		q.ApplyDagger(dst32, tmp32)
		q.Apply(tmpB32, srcB32)
		q.ApplyDagger(dstB32, tmpB32)
	}
	scalar64 := func() { ref64.applyNormal(lanes64(dst), lanes64(src), lanes64(tmp)) }
	scalar32 := func() { ref32.applyNormal(lanes32(dst32), lanes32(src32), lanes32(tmp32)) }
	for _, c := range []struct {
		name      string
		cand, ref func()
	}{
		{"f32", lone32, scalar32},
		{"f64", vec64, scalar64},
		{"f32-lone", lone32, pair32},
		{"f64-fibre", vec64, goFibre64},
		{"f32-vs-f64", lone32, vec64},
		{"f32-vs-scalar-f64", lone32, scalar64},
		{"f32-pair", pair32, single32},
		{"f64-fused", vec64, composed64},
		{"f32-pair-fused", pair32, composedPair32},
		{"aa", lone32, lone32},
	} {
		b.Run(c.name, func(b *testing.B) { pairedtest.Bench(b, c.cand, c.ref) })
	}
}

// BenchmarkWilsonDslashPaired is BenchmarkWilsonDslash's application judged
// in pairs, at the wire-2rank lattice (4^3 x 8): the flat
// Wilson operator against the generic composition it replaced (refWilson,
// staged_ref_test.go); against the loop of scalar hops the site body
// replaced (scalarWilson, the same file), plain and dagger; and an A/A
// calibration whose ratio should read 1. Run with -cpu 1 -benchtime 60x.
func BenchmarkWilsonDslashPaired(b *testing.B) {
	g := lattice.MustNew(4, 4, 4, 8)
	w := NewWilson(gauge.NewRandom(g, 1), 0.1)
	src, dst := randField(rand.New(rand.NewSource(2)), w.Size()), make([]complex128, w.Size())
	flat := func() { w.Apply(dst, src) }
	flatDag := func() { w.ApplyDagger(dst, src) }
	generic := func() { refWilson(w, dst, src, false) }
	scalar := func() { scalarWilson(w, dst, src, false) }
	scalarDag := func() { scalarWilson(w, dst, src, true) }
	for _, c := range []struct {
		name      string
		cand, ref func()
	}{
		{"apply", flat, generic},
		{"site", flat, scalar},
		{"site-dagger", flatDag, scalarDag},
		{"aa", flat, flat},
	} {
		b.Run(c.name, func(b *testing.B) { pairedtest.Bench(b, c.cand, c.ref) })
	}
}
