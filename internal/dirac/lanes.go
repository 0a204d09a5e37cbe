package dirac

import (
	"unsafe"

	"femtoverse/internal/linalg"
)

// cx is one complex number as the generic kernels see it. Go has no
// complex type over a type parameter - real, imag and complex reject
// type-parameter operands (go.dev/issue/50937) - so a kernel written once
// for both precisions cannot take a []complex64 or a []complex128 apart.
// It works on lanes instead: the same memory, read as pairs of floats. cx
// is a struct and not a [2]F because the compiler keeps a two-field struct
// in registers and sends a two-element array through memory.
type cx[F float32 | float64] struct{ re, im F }

// link is an SU(3) matrix in lanes: linalg.SU3 or SU3C64.
type link[F float32 | float64] [3][3]cx[F]

// The six views below are the only unsafe code in the tree (ci.sh holds
// the import to this file and its test). Each reinterprets a slice, a
// spinor or a link in place - no copy, the same length, writes through
// either side seen by the other - and relies on one fact about the
// compiler's layout: a complex value is its real part followed by its
// imaginary part, each of the matching float type, with no padding.
// lanes_test.go pins it, sizes and order, rather than assuming it. A slice
// view is taken once per pass over the lattice, never per site; the
// spinor and link views are pointer conversions, which cost no
// instruction, and Hop takes them per hop.

func lanes64(v []complex128) []cx[float64] {
	return unsafe.Slice((*cx[float64])(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

func lanes32(v []complex64) []cx[float32] {
	return unsafe.Slice((*cx[float32])(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

func links64(u []linalg.SU3) []link[float64] {
	return unsafe.Slice((*link[float64])(unsafe.Pointer(unsafe.SliceData(u))), len(u))
}

func links32(u []SU3C64) []link[float32] {
	return unsafe.Slice((*link[float32])(unsafe.Pointer(unsafe.SliceData(u))), len(u))
}

func spinor64(v *[SpinorLen]complex128) *[SpinorLen]cx[float64] {
	return (*[SpinorLen]cx[float64])(unsafe.Pointer(v))
}

func link64(u *linalg.SU3) *link[float64] {
	return (*link[float64])(unsafe.Pointer(u))
}
