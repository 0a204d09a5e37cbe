package linalg

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// benchPaired times cand against ref in one process by adjacent blocks of
// about 15 ms each, alternating which runs first, and reports the median
// block ratio with its 95% bootstrap interval - internal/dirac's
// paired_test.go helper, which a test file of another package cannot
// import. Nothing asserts on the numbers; EXPERIMENTS.md records them.
// Run with -cpu 1 -benchtime 60x: 60 pairs.
func benchPaired(b *testing.B, cand, ref func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const block = 15 * time.Millisecond
	run := func(f func(), reps int) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return time.Since(start)
	}
	ref()
	cand()
	reps := 1
	for {
		if el := run(ref, reps); el >= block/4 {
			reps = max(1, int(float64(reps)*float64(block)/float64(el)))
			break
		}
		reps *= 2
	}
	var ratios []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tc, tr time.Duration
		if i%2 == 0 {
			tc, tr = run(cand, reps), run(ref, reps)
		} else {
			tr, tc = run(ref, reps), run(cand, reps)
		}
		ratios = append(ratios, float64(tc)/float64(tr))
	}
	median := func(v []float64) float64 {
		s := slices.Clone(v)
		slices.Sort(s)
		return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
	}
	rng := rand.New(rand.NewSource(1))
	meds := make([]float64, 2000)
	sample := make([]float64, len(ratios))
	for k := range meds {
		for i := range sample {
			sample[i] = ratios[rng.Intn(len(ratios))]
		}
		meds[k] = median(sample)
	}
	slices.Sort(meds)
	b.ReportMetric(median(ratios), "ratio")
	b.ReportMetric(meds[len(meds)*25/1000], "ratio_lo")
	b.ReportMetric(meds[len(meds)*975/1000], "ratio_hi")
}

// BenchmarkBLAS1C64Paired is one system's BLAS-1 of a sloppy CG iteration
// on the fh-* CG vector (3072 complex64) judged in pairs: the build's
// sequence - AxpyC64, the fused AxpyNormSqC64, XpayC64 and DotC64, on the
// AVX bodies where the host has them - against the sequence it replaced,
// the Go loops of AxpyC64, AxpyC64, NormSqC64, XpayC64 and DotC64 (seq);
// each body against its Go loop (axpy, dot, norm), the fused pass against
// the two Go passes it replaces (axpy+norm), and an A/A calibration (aa).
func BenchmarkBLAS1C64Paired(b *testing.B) {
	const n = 3072
	rng := rand.New(rand.NewSource(3))
	pv, ap, xs, r := blasVec(rng, n, 0), blasVec(rng, n, 0), blasVec(rng, n, 0), blasVec(rng, n, 0)
	a, beta := complex(float32(1e-3), 0), complex(float32(0.5), 0)
	var sinkC complex128
	var sinkF float64
	build := func() {
		AxpyC64(a, pv, xs)
		sinkF = AxpyNormSqC64(-a, ap, r)
		XpayC64(r, beta, pv)
		sinkC = DotC64(pv, ap)
	}
	unfused := func() {
		axpyC64(a, pv, xs)
		axpyC64(-a, ap, r)
		sinkF = sumChunks(n, func(lo, hi int) float64 { return normSqC64(r[lo:hi]) })
		xpayC64(r, beta, pv)
		sinkC = sumChunks(n, func(lo, hi int) complex128 { return dotC64(pv[lo:hi], ap[lo:hi]) })
	}
	for _, c := range []struct {
		name      string
		cand, ref func()
	}{
		{"seq", build, unfused},
		{"axpy", func() { AxpyC64(a, pv, xs) }, func() { axpyC64(a, pv, xs) }},
		{"axpy+norm", func() { sinkF = AxpyNormSqC64(-a, ap, r) }, func() { axpyC64(-a, ap, r); sinkF = normSqC64(r) }},
		{"dot", func() { sinkC = DotC64(pv, ap) }, func() { sinkC = dotC64(pv, ap) }},
		{"norm", func() { sinkF = NormSqC64(r) }, func() { sinkF = normSqC64(r) }},
		{"aa", build, build},
	} {
		b.Run(c.name, func(b *testing.B) { benchPaired(b, c.cand, c.ref) })
	}
	_, _ = sinkC, sinkF
}
