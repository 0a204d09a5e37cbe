package dirac

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// paired times a candidate against a reference in one process, by
// adjacent blocks: the host's speed drifts by tens of per cent within
// minutes, so two separately timed runs resolve little, but the ratio of
// two blocks tens of milliseconds apart cancels the drift. Each block
// runs a function reps times; a pair runs a candidate block and a
// reference block, the order alternating from one pair to the next so
// that neither side always runs on the warmer cache or the later clock.
type paired struct {
	cand, ref func()
	reps      int
	ratios    []float64
}

// newPaired sizes the blocks so that a reference block takes about block.
func newPaired(cand, ref func(), block time.Duration) *paired {
	ref()
	cand()
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			ref()
		}
		if el := time.Since(start); el >= block/4 {
			reps = max(1, int(float64(reps)*float64(block)/float64(el)))
			break
		}
		reps *= 2
	}
	return &paired{cand: cand, ref: ref, reps: reps}
}

func (p *paired) block(f func()) time.Duration {
	start := time.Now()
	for i := 0; i < p.reps; i++ {
		f()
	}
	return time.Since(start)
}

// pair times the n-th pair of blocks and keeps its candidate/reference
// ratio.
func (p *paired) pair(n int) {
	var tc, tr time.Duration
	if n%2 == 0 {
		tc = p.block(p.cand)
		tr = p.block(p.ref)
	} else {
		tr = p.block(p.ref)
		tc = p.block(p.cand)
	}
	p.ratios = append(p.ratios, float64(tc)/float64(tr))
}

// result is the median pair ratio and its 95% bootstrap interval (2000
// resamples, fixed seed).
func (p *paired) result() (med, lo, hi float64) {
	med = median(p.ratios)
	rng := rand.New(rand.NewSource(1))
	meds := make([]float64, 2000)
	sample := make([]float64, len(p.ratios))
	for b := range meds {
		for i := range sample {
			sample[i] = p.ratios[rng.Intn(len(p.ratios))]
		}
		meds[b] = median(sample)
	}
	slices.Sort(meds)
	return med, meds[len(meds)*25/1000], meds[len(meds)*975/1000]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// benchPaired runs one pair of blocks per iteration on a locked OS thread
// and reports the median ratio with its interval: -benchtime 60x is 60
// pairs. Nothing asserts on the numbers; EXPERIMENTS.md records them.
func benchPaired(b *testing.B, cand, ref func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p := newPaired(cand, ref, 15*time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.pair(i)
	}
	med, lo, hi := p.result()
	b.ReportMetric(med, "ratio")
	b.ReportMetric(lo, "ratio_lo")
	b.ReportMetric(hi, "ratio_hi")
}

// BenchmarkSchurNormalPaired is BenchmarkSchurNormal's normal-equation
// application (the fh-* lattice, Ls 4, a dense source) judged
// in pairs: each precision's lane kernel against the scalar kernel it
// replaced (scalar_ref_test.go); against itself with the vector hop and
// the Go fifth-dimension bodies (-fibre: what the vector fibre bodies buy);
// float32 against float64 and against the scalar float64 kernel; the
// pair layout's sloppy step on two systems against the single layout's on
// each (f32-pair: a ratio of 0.5 is the pair at the cost of one system);
// the fused normal - the dagger from the image Apply leaves in the
// scratch, no load pass - against Apply then ApplyDagger, on one float64
// system (f64-fused) and on a float32 pair (f32-pair-fused); and an A/A
// calibration whose ratio should read 1. Run with -cpu 1 -benchtime 60x.
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
	// hop64 and hop32 are the build's vector hop alone: every
	// fifth-dimension pass runs its Go body.
	all64, all32 := p.vec, q.vec
	var hop64 *vecBodies[float64]
	var hop32 *vecBodies[float32]
	if all64 != nil {
		hop64, hop32 = &vecBodies[float64]{hop: all64.hop}, &vecBodies[float32]{hop: all32.hop}
	}
	one64, one32 := [2][][]complex128{{dst}, {src}}, [2][][]complex64{{dst32}, {src32}}
	vec64 := func() { p.vec = all64; p.ApplyNormal(one64[0], one64[1]) }
	vec32 := func() { q.vec = all32; q.ApplyNormal(one32[0], one32[1]) }
	goFibre64 := func() { p.vec = hop64; p.ApplyNormal(one64[0], one64[1]) }
	goFibre32 := func() { q.vec = hop32; q.ApplyNormal(one32[0], one32[1]) }
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
	pair32 := func() { q.vec = all32; q.ApplyNormal(two32[0], two32[1]) }
	pairSrc, pairTmp, pairDst := [2][]cx[float32]{lanes32(src32), lanes32(srcB32)}, [2][]cx[float32]{lanes32(tmp32), lanes32(tmpB32)}, [2][]cx[float32]{lanes32(dst32), lanes32(dstB32)}
	composedPasses := []struct {
		st       schurStage
		dst, src [2][]cx[float32]
	}{{stageB, pairDst, pairSrc}, {stageInner, pairDst, pairSrc}, {stageOuter, pairTmp, pairSrc}, {stageLoad, pairDst, pairTmp}, {stageInnerDag, pairDst, pairTmp}, {stageOuterDag, pairDst, pairTmp}}
	composedPair32 := func() {
		q.vec = all32
		for _, ps := range composedPasses {
			q.pass(ps.st, q.pair != nil, ps.dst, ps.src)
		}
	}
	single32 := func() {
		q.vec = all32
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
		{"f32", vec32, scalar32},
		{"f64", vec64, scalar64},
		{"f32-fibre", vec32, goFibre32},
		{"f64-fibre", vec64, goFibre64},
		{"f32-vs-f64", vec32, vec64},
		{"f32-vs-scalar-f64", vec32, scalar64},
		{"f32-pair", pair32, single32},
		{"f64-fused", vec64, composed64},
		{"f32-pair-fused", pair32, composedPair32},
		{"aa", vec32, vec32},
	} {
		b.Run(c.name, func(b *testing.B) { benchPaired(b, c.cand, c.ref) })
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
		b.Run(c.name, func(b *testing.B) { benchPaired(b, c.cand, c.ref) })
	}
}
