package dirac

import (
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// The vector bodies of schur_amd64.s. The fifth-dimension passes are SSE
// and SSE2, the amd64 baseline, so every amd64 build runs them; the hop and
// the 4-D Wilson site are AVX and run where linalg.HasAVX, the start-up
// probe, found it, and the Go bodies elsewhere, as do the pair layout's
// bodies, all AVX (pair.go), without which a pair is two single
// applications. The portable Go bodies of schur.go and wilson.go are what
// the tests hold the single bodies to, and two single applications what
// they hold the pair bodies to.
func init() {
	vec32 = &vecBodies[float32]{
		aInv: aInvSSE32, ba: baSSE32, baxpy: baxpySSE32,
		axpy: axpySSE32, load: loadSSE32, store: storeSSE32,
	}
	vec64 = &vecBodies[float64]{
		aInv: aInvSSE64, ba: baSSE64, baxpy: baxpySSE64,
		axpy: axpySSE64, load: loadSSE64, store: storeSSE64,
	}
	if linalg.HasAVX {
		vec32.hop, vec64.hop = hopAVX32, hopAVX64
		siteBody = siteAVX
		pair32 = &pairBodies[float32]{
			hop: hopAVX32x2, aInv: aInvAVX32x2, ba: baAVX32x2, baxpy: baxpyAVX32x2,
			load: loadAVX32x2, store: storeAVX32x2,
		}
	}
}

//go:noescape
func siteAVX(out, in *[SpinorLen]complex128, legs *Legs, diag float64, dagger bool)

//go:noescape
func hopAVX32x2(dst, src *float32, hops *lattice.Hop, u *[lattice.NDim][]link[float32], keep *float32, ls int, g5 bool)

//go:noescape
func aInvAVX32x2(dst, src, colP, colM *float32, ls int)

//go:noescape
func baAVX32x2(dst, src *float32, chi *chiPair[float32], keep *float32, groups int, w0, w1 float32, dagger bool)

//go:noescape
func baxpyAVX32x2(z, y *float32, chi *chiPair[float32], keep *float32, groups int, w0, w1 float32, dagger bool)

//go:noescape
func loadAVX32x2(dst, a, b *float32, stride, ls int)

//go:noescape
func storeAVX32x2(a, b, src *float32, stride, ls int)

//go:noescape
func hopAVX32(dst, src *float32, hops *lattice.Hop, u *[lattice.NDim][]link[float32], keep *float32, ls int, g5 bool)

//go:noescape
func hopAVX64(dst, src *float64, hops *lattice.Hop, u *[lattice.NDim][]link[float64], keep *float64, ls int, g5 bool)

//go:noescape
func aInvSSE32(dst, src, colP, colM *float32, lane *int, ls int)

//go:noescape
func aInvSSE64(dst, src, colP, colM *float64, lane *int, ls int)

//go:noescape
func baSSE32(dst, src *float32, chi *chiBlock[float32], keep *float32, groups int, w0, w1 float32, dagger bool)

//go:noescape
func baSSE64(dst, src *float64, chi *chiBlock[float64], keep *float64, groups int, w0, w1 float64, dagger bool)

//go:noescape
func baxpySSE32(z, y *float32, chi *chiBlock[float32], keep *float32, groups int, w0, w1 float32, dagger bool)

//go:noescape
func baxpySSE64(z, y *float64, chi *chiBlock[float64], keep *float64, groups int, w0, w1 float64, dagger bool)

//go:noescape
func axpySSE32(y, x, keep *float32, groups int)

//go:noescape
func axpySSE64(y, x, keep *float64, groups int)

//go:noescape
func loadSSE32(dst, src *float32, stride, ls int)

//go:noescape
func loadSSE64(dst, src *float64, stride, ls int)

//go:noescape
func storeSSE32(dst, src *float32, stride, ls int)

//go:noescape
func storeSSE64(dst, src *float64, stride, ls int)
