package linalg

import "math"

// The BLAS-1 kernels below are the auxiliary operations of the CG solver
// described in the paper (50-100 flops per lattice site, strongly
// bandwidth-bound). Each runs on the calling goroutine - the lane solving
// the system - and allocates nothing.
//
// Axpy, Dot, NormSq, Norm, AxpyC64 and DotC64 take a trailing int that
// they ignore: the benchmark module still passes a worker count to them,
// and drops it with its next change (ROADMAP item 1(b)).

// ReduceChunk is the fixed reduction chunk size. Reductions accumulate a
// partial sum per ReduceChunk-sized slab of [0, n) and add the partials in
// slab-index order, so the floating-point summation tree is a function of
// n alone. That order is the bit contract of Dot/Norm2 - and through them
// of whole CGNE solves and the journal's bit-for-bit resume - so it stays
// fixed whatever the range's size.
const ReduceChunk = 4096

// ReduceFloat64 sums body over fixed-size chunks of [0, n) in chunk-index
// order (sumChunks). All partial and final accumulation happens in
// float64, matching the paper's convention that reductions are always
// performed in double precision.
func ReduceFloat64(n int, body func(lo, hi int) float64) float64 {
	return sumChunks(n, body)
}

// ReduceComplex128 is ReduceFloat64 for complex partial sums.
func ReduceComplex128(n int, body func(lo, hi int) complex128) complex128 {
	return sumChunks(n, body)
}

// sumChunks is the reduction: a running sum over ReduceChunk-sized chunks
// in order. It does not retain body, so a caller's closure stays on its
// stack and the pass allocates nothing.
func sumChunks[T float64 | complex128](n int, body func(lo, hi int) T) T {
	if n <= ReduceChunk {
		if n <= 0 {
			return 0
		}
		return body(0, n)
	}
	var sum T
	for lo := 0; lo < n; lo += ReduceChunk {
		sum += body(lo, min(lo+ReduceChunk, n))
	}
	return sum
}

// Copy copies src into dst. The slices must have equal length.
func Copy(dst, src []complex128) {
	if len(dst) != len(src) {
		panic("linalg: Copy length mismatch")
	}
	copy(dst, src)
}

// Axpy computes y[i] += a*x[i].
func Axpy(a complex128, x, y []complex128, _ ...int) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	for i, xi := range x {
		y[i] += a * xi
	}
}

// Xpay computes y[i] = x[i] + a*y[i] (the CG search-direction update).
func Xpay(x []complex128, a complex128, y []complex128) {
	if len(x) != len(y) {
		panic("linalg: Xpay length mismatch")
	}
	for i, xi := range x {
		y[i] = xi + a*y[i]
	}
}

// AxpyZ computes z[i] = a*x[i] + y[i] without overwriting the inputs.
func AxpyZ(a complex128, x, y, z []complex128) {
	if len(x) != len(y) || len(x) != len(z) {
		panic("linalg: AxpyZ length mismatch")
	}
	for i, xi := range x {
		z[i] = a*xi + y[i]
	}
}

// Dot returns the conjugated inner product <x, y> = sum conj(x[i]) * y[i],
// accumulated in double precision.
func Dot(x, y []complex128, _ ...int) complex128 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	return sumChunks(len(x), func(lo, hi int) complex128 { return dot(x[lo:hi], y[lo:hi]) })
}

func dot(x, y []complex128) complex128 {
	var s complex128
	for i, xc := range x {
		s += complex(real(xc), -imag(xc)) * y[i]
	}
	return s
}

// NormSq returns ||v||^2 accumulated in double precision.
func NormSq(v []complex128, _ ...int) float64 {
	return sumChunks(len(v), func(lo, hi int) float64 { return normSq(v[lo:hi]) })
}

func normSq(v []complex128) float64 {
	s := 0.0
	for _, c := range v {
		re, im := real(c), imag(c)
		s += re*re + im*im
	}
	return s
}

// Norm returns ||v||.
func Norm(v []complex128, _ ...int) float64 {
	return math.Sqrt(NormSq(v))
}

// Single-precision variants used by the inner stage of the mixed-precision
// solver. Reductions still accumulate in float64 per the paper.

// ZeroC64 sets every element of v to zero.
func ZeroC64(v []complex64) {
	for i := range v {
		v[i] = 0
	}
}

// The complex64 passes run their Go loops below, or, where HasAVX, the
// AVX bodies of blas1_amd64.s (avx_amd64.go selects them once at start-up).
// An AVX body does to each element what its Go loop does, in the same
// order, so the choice moves no bit.
var (
	axpyC64Body       = axpyC64
	xpayC64Body       = xpayC64
	dotC64Body        = dotC64
	normSqC64Body     = normSqC64
	axpyNormSqC64Body = axpyNormSqC64
)

// AxpyC64 computes y[i] += a*x[i] in single precision.
func AxpyC64(a complex64, x, y []complex64, _ ...int) {
	if len(x) != len(y) {
		panic("linalg: AxpyC64 length mismatch")
	}
	axpyC64Body(a, x, y)
}

// axpyC64 is AxpyC64's Go loop. The complex product is expanded into
// float32 components because the Go compiler lowers complex64
// multiplication through complex128.
func axpyC64(a complex64, x, y []complex64) {
	ar, ai := real(a), imag(a)
	for i, xc := range x {
		xr, xi := real(xc), imag(xc)
		y[i] += complex(ar*xr-ai*xi, ar*xi+ai*xr)
	}
}

// XpayC64 computes y[i] = x[i] + a*y[i] in single precision.
func XpayC64(x []complex64, a complex64, y []complex64) {
	if len(x) != len(y) {
		panic("linalg: XpayC64 length mismatch")
	}
	xpayC64Body(x, a, y)
}

func xpayC64(x []complex64, a complex64, y []complex64) {
	ar, ai := real(a), imag(a)
	for i, xc := range x {
		yr, yi := real(y[i]), imag(y[i])
		y[i] = xc + complex(ar*yr-ai*yi, ar*yi+ai*yr)
	}
}

// DotC64 returns <x, y> with double-precision accumulation.
func DotC64(x, y []complex64, _ ...int) complex128 {
	if len(x) != len(y) {
		panic("linalg: DotC64 length mismatch")
	}
	return sumChunks(len(x), func(lo, hi int) complex128 { return dotC64Body(x[lo:hi], y[lo:hi]) })
}

func dotC64(x, y []complex64) complex128 {
	var s complex128
	for i, xc := range x {
		s += complex(float64(real(xc)), -float64(imag(xc))) *
			complex(float64(real(y[i])), float64(imag(y[i])))
	}
	return s
}

// NormSqC64 returns ||v||^2 with double-precision accumulation.
func NormSqC64(v []complex64) float64 {
	return sumChunks(len(v), func(lo, hi int) float64 { return normSqC64Body(v[lo:hi]) })
}

func normSqC64(v []complex64) float64 {
	s := 0.0
	for _, c := range v {
		re, im := float64(real(c)), float64(imag(c))
		s += re*re + im*im
	}
	return s
}

// AxpyNormSqC64 computes y[i] += a*x[i] and returns ||y||^2 of the result:
// AxpyC64 then NormSqC64, bit for bit, in one pass over x and y - the CG
// residual update and the norm the next step divides by.
func AxpyNormSqC64(a complex64, x, y []complex64) float64 {
	if len(x) != len(y) {
		panic("linalg: AxpyNormSqC64 length mismatch")
	}
	return sumChunks(len(x), func(lo, hi int) float64 { return axpyNormSqC64Body(a, x[lo:hi], y[lo:hi]) })
}

func axpyNormSqC64(a complex64, x, y []complex64) float64 {
	ar, ai := real(a), imag(a)
	s := 0.0
	for i, xc := range x {
		xr, xi := real(xc), imag(xc)
		c := y[i] + complex(ar*xr-ai*xi, ar*xi+ai*xr)
		y[i] = c
		re, im := float64(real(c)), float64(imag(c))
		s += re*re + im*im
	}
	return s
}

// Demote converts a double-precision vector to single precision.
func Demote(dst []complex64, src []complex128) {
	if len(dst) != len(src) {
		panic("linalg: Demote length mismatch")
	}
	for i, c := range src {
		dst[i] = complex(float32(real(c)), float32(imag(c)))
	}
}

// Promote converts a single-precision vector to double precision.
func Promote(dst []complex128, src []complex64) {
	if len(dst) != len(src) {
		panic("linalg: Promote length mismatch")
	}
	for i, c := range src {
		dst[i] = complex(float64(real(c)), float64(imag(c)))
	}
}
