package linalg

func init() {
	HasAVX = haveAVX()
	if HasAVX {
		halfAVX = halfRoundTripAVX
		axpyC64Body = axpyC64AVX
		xpayC64Body = xpayC64AVX
		dotC64Body = dotC64AVX
		normSqC64Body = normSqC64AVX
		axpyNormSqC64Body = axpyNormSqC64AVX
	}
}

// haveAVX is the CPUID/XGETBV probe of half_amd64.s.
func haveAVX() bool

//go:noescape
func halfRoundTripAVX(v *complex64, blocks int) bool

// The complex64 BLAS-1 bodies of blas1_amd64.s.

//go:noescape
func axpyC64AVX(a complex64, x, y []complex64)

//go:noescape
func xpayC64AVX(x []complex64, a complex64, y []complex64)

//go:noescape
func dotC64AVX(x, y []complex64) complex128

//go:noescape
func normSqC64AVX(v []complex64) float64

//go:noescape
func axpyNormSqC64AVX(a complex64, x, y []complex64) float64
