package dirac

import (
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// The vector bodies of schur_amd64.s and the 4-D Wilson site, all AVX:
// they run where linalg.HasAVX, the start-up probe, found it, and
// elsewhere every pass runs its portable Go body, as on every other
// architecture. float64 runs the YMM bodies of one system (vec64), float32
// the pair layout's (pair32, pair.go), a lone system as both halves of a
// pair. The portable Go bodies of schur.go and wilson.go are what the tests
// hold every body to.
func init() {
	if !linalg.HasAVX {
		return
	}
	siteBody = siteAVX
	vec64 = &vecBodies[float64]{
		hop: hopAVX64, aInv: aInvAVX64, ba: baAVX64, baxpy: baxpyAVX64,
		load: loadAVX64, store: storeAVX64,
	}
	pair32 = &pairBodies[float32]{
		hop: hopAVX32x2, aInv: aInvAVX32x2, ba: baAVX32x2, baxpy: baxpyAVX32x2,
		load: loadAVX32x2, store: storeAVX32x2,
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
func hopAVX64(dst, src *float64, hops *lattice.Hop, u *[lattice.NDim][]link[float64], keep *float64, ls int, g5 bool)

//go:noescape
func aInvAVX64(dst, src, colP, colM *float64, ls int)

//go:noescape
func baAVX64(dst, src *float64, chi *chiBlock[float64], keep *float64, groups int, w0, w1 float64, dagger bool)

//go:noescape
func baxpyAVX64(z, y *float64, chi *chiBlock[float64], keep *float64, groups int, w0, w1 float64, dagger bool)

//go:noescape
func loadAVX64(dst, src *float64, stride, ls int)

//go:noescape
func storeAVX64(dst, src *float64, stride, ls int)
