package linalg

import (
	"math/rand"
	"testing"

	"femtoverse/internal/pairedtest"
)

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
		b.Run(c.name, func(b *testing.B) { pairedtest.Bench(b, c.cand, c.ref) })
	}
	_, _ = sinkC, sinkF
}
