// Package linalg provides the dense linear-algebra primitives underneath
// the lattice-QCD application: complex BLAS-1 operations on fermion-field
// vectors (on the calling goroutine, with all reductions accumulated in
// double precision as in the paper's performance-measurement convention),
// the process-wide lane budget that decides how many goroutines solve at
// once, SU(3) color matrices, 4x4 spin matrices in the
// DeGrand-Rossi gamma-matrix basis, and the QUDA-style 16-bit fixed-point
// "half precision" storage format with one float32 scale per site block.
//
// Field vectors are flat []complex128 (or []complex64 for single
// precision) with layout chosen by the caller; this package only fixes the
// per-site spinor ordering spin-major: index = spin*3 + color.
package linalg
