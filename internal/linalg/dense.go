package linalg

import (
	"fmt"
	"math"
)

// Small dense real linear algebra: the Ls x Ls fifth-dimension inverse of
// the even-odd preconditioner and the normal-equation solves of the
// Levenberg-Marquardt fitter both need an honest LU factorization with
// partial pivoting. Matrices are row-major.

// LUReal factors a into PA = LU in place and returns the pivot vector.
// It fails on (numerically) singular matrices.
func LUReal(n int, a []float64) ([]int, error) {
	if len(a) != n*n {
		return nil, fmt.Errorf("linalg: LUReal needs %d elements, got %d", n*n, len(a))
	}
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("linalg: singular matrix at pivot %d", k)
		}
		if p != k {
			piv[k], piv[p] = piv[p], piv[k]
			for j := 0; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
		}
		inv := 1 / a[k*n+k]
		for i := k + 1; i < n; i++ {
			l := a[i*n+k] * inv
			a[i*n+k] = l
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= l * a[k*n+j]
			}
		}
	}
	return piv, nil
}

// luSolve solves LUx = Pb given a factored matrix.
func luSolve(n int, lu []float64, piv []int, b, x []float64) {
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= lu[i*n+j] * x[j]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= lu[i*n+j] * x[j]
		}
		x[i] /= lu[i*n+i]
	}
}

// SolveReal solves a x = b for dense real a (row-major, n x n), returning
// a freshly allocated solution. a and b are not modified.
func SolveReal(n int, a, b []float64) ([]float64, error) {
	if len(b) != n {
		return nil, fmt.Errorf("linalg: SolveReal rhs has %d elements, want %d", len(b), n)
	}
	lu := append([]float64(nil), a...)
	piv, err := LUReal(n, lu)
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	luSolve(n, lu, piv, b, x)
	return x, nil
}

// InvReal returns the inverse of dense real a (row-major, n x n) without
// modifying the input.
func InvReal(n int, a []float64) ([]float64, error) {
	lu := append([]float64(nil), a...)
	piv, err := LUReal(n, lu)
	if err != nil {
		return nil, err
	}
	inv := make([]float64, n*n)
	e := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		luSolve(n, lu, piv, e, col)
		for i := 0; i < n; i++ {
			inv[i*n+j] = col[i]
		}
	}
	return inv, nil
}

// TransposeReal returns the transpose of a row-major n x n matrix.
func TransposeReal(n int, a []float64) []float64 {
	t := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t[j*n+i] = a[i*n+j]
		}
	}
	return t
}
