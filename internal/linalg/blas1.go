package linalg

import "math"

// The BLAS-1 kernels below are the auxiliary operations of the CG solver
// described in the paper (50-100 flops per lattice site, strongly
// bandwidth-bound). Each kernel takes an explicit worker count, the width
// the propagator lanes leave it; workers <= 0 means DefaultWorkers.

// Copy copies src into dst. The slices must have equal length.
func Copy(dst, src []complex128) {
	if len(dst) != len(src) {
		panic("linalg: Copy length mismatch")
	}
	copy(dst, src)
}

// Every kernel below is a named loop over whole slices, run directly when
// serialPass says the pass stays on the calling goroutine and through
// For/Reduce* on sub-slices otherwise; the element order within a chunk,
// and so every result bit, is the same either way.

// Axpy computes y[i] += a*x[i].
func Axpy(a complex128, x, y []complex128, workers int) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	if serialPass(len(x), workers) {
		axpy(a, x, y)
		return
	}
	For(len(x), workers, func(lo, hi int) { axpy(a, x[lo:hi], y[lo:hi]) })
}

func axpy(a complex128, x, y []complex128) {
	for i, xi := range x {
		y[i] += a * xi
	}
}

// Xpay computes y[i] = x[i] + a*y[i] (the CG search-direction update).
func Xpay(x []complex128, a complex128, y []complex128, workers int) {
	if len(x) != len(y) {
		panic("linalg: Xpay length mismatch")
	}
	if serialPass(len(x), workers) {
		xpay(x, a, y)
		return
	}
	For(len(x), workers, func(lo, hi int) { xpay(x[lo:hi], a, y[lo:hi]) })
}

func xpay(x []complex128, a complex128, y []complex128) {
	for i, xi := range x {
		y[i] = xi + a*y[i]
	}
}

// AxpyZ computes z[i] = a*x[i] + y[i] without overwriting the inputs.
func AxpyZ(a complex128, x, y, z []complex128, workers int) {
	if len(x) != len(y) || len(x) != len(z) {
		panic("linalg: AxpyZ length mismatch")
	}
	if serialPass(len(x), workers) {
		axpyZ(a, x, y, z)
		return
	}
	For(len(x), workers, func(lo, hi int) { axpyZ(a, x[lo:hi], y[lo:hi], z[lo:hi]) })
}

func axpyZ(a complex128, x, y, z []complex128) {
	for i, xi := range x {
		z[i] = a*xi + y[i]
	}
}

// Dot returns the conjugated inner product <x, y> = sum conj(x[i]) * y[i],
// accumulated in double precision.
func Dot(x, y []complex128, workers int) complex128 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	if serialPass(len(x), workers) {
		return sumChunks(len(x), func(lo, hi int) complex128 { return dot(x[lo:hi], y[lo:hi]) })
	}
	return ReduceComplex128(len(x), workers, func(lo, hi int) complex128 { return dot(x[lo:hi], y[lo:hi]) })
}

func dot(x, y []complex128) complex128 {
	var s complex128
	for i, xc := range x {
		s += complex(real(xc), -imag(xc)) * y[i]
	}
	return s
}

// NormSq returns ||v||^2 accumulated in double precision.
func NormSq(v []complex128, workers int) float64 {
	if serialPass(len(v), workers) {
		return sumChunks(len(v), func(lo, hi int) float64 { return normSq(v[lo:hi]) })
	}
	return ReduceFloat64(len(v), workers, func(lo, hi int) float64 { return normSq(v[lo:hi]) })
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
func Norm(v []complex128, workers int) float64 {
	return math.Sqrt(NormSq(v, workers))
}

// Single-precision variants used by the inner stage of the mixed-precision
// solver. Reductions still accumulate in float64 per the paper.

// ZeroC64 sets every element of v to zero.
func ZeroC64(v []complex64) {
	for i := range v {
		v[i] = 0
	}
}

// AxpyC64 computes y[i] += a*x[i] in single precision.
func AxpyC64(a complex64, x, y []complex64, workers int) {
	if len(x) != len(y) {
		panic("linalg: AxpyC64 length mismatch")
	}
	if serialPass(len(x), workers) {
		axpyC64(a, x, y)
		return
	}
	For(len(x), workers, func(lo, hi int) { axpyC64(a, x[lo:hi], y[lo:hi]) })
}

// The complex product is expanded into float32 components because the Go
// compiler lowers complex64 multiplication through complex128.
func axpyC64(a complex64, x, y []complex64) {
	ar, ai := real(a), imag(a)
	for i, xc := range x {
		xr, xi := real(xc), imag(xc)
		y[i] += complex(ar*xr-ai*xi, ar*xi+ai*xr)
	}
}

// XpayC64 computes y[i] = x[i] + a*y[i] in single precision.
func XpayC64(x []complex64, a complex64, y []complex64, workers int) {
	if len(x) != len(y) {
		panic("linalg: XpayC64 length mismatch")
	}
	if serialPass(len(x), workers) {
		xpayC64(x, a, y)
		return
	}
	For(len(x), workers, func(lo, hi int) { xpayC64(x[lo:hi], a, y[lo:hi]) })
}

func xpayC64(x []complex64, a complex64, y []complex64) {
	ar, ai := real(a), imag(a)
	for i, xc := range x {
		yr, yi := real(y[i]), imag(y[i])
		y[i] = xc + complex(ar*yr-ai*yi, ar*yi+ai*yr)
	}
}

// DotC64 returns <x, y> with double-precision accumulation.
func DotC64(x, y []complex64, workers int) complex128 {
	if len(x) != len(y) {
		panic("linalg: DotC64 length mismatch")
	}
	if serialPass(len(x), workers) {
		return sumChunks(len(x), func(lo, hi int) complex128 { return dotC64(x[lo:hi], y[lo:hi]) })
	}
	return ReduceComplex128(len(x), workers, func(lo, hi int) complex128 { return dotC64(x[lo:hi], y[lo:hi]) })
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
func NormSqC64(v []complex64, workers int) float64 {
	if serialPass(len(v), workers) {
		return sumChunks(len(v), func(lo, hi int) float64 { return normSqC64(v[lo:hi]) })
	}
	return ReduceFloat64(len(v), workers, func(lo, hi int) float64 { return normSqC64(v[lo:hi]) })
}

func normSqC64(v []complex64) float64 {
	s := 0.0
	for _, c := range v {
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
