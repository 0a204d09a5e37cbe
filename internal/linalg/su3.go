package linalg

import (
	"math"
	"math/rand"
)

// SU3 is a 3x3 complex matrix in the fundamental representation of SU(3),
// the gauge-link datatype of the theory (the paper's dense 12x12 stencil
// submatrices are built from these acting on the four spin components).
type SU3 [3][3]complex128

// IdentitySU3 returns the 3x3 identity matrix.
func IdentitySU3() SU3 {
	var m SU3
	m[0][0], m[1][1], m[2][2] = 1, 1, 1
	return m
}

// Mul returns a*b.
func (a SU3) Mul(b SU3) SU3 {
	var c SU3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			c[i][j] = a[i][0]*b[0][j] + a[i][1]*b[1][j] + a[i][2]*b[2][j]
		}
	}
	return c
}

// Add returns a+b (not an SU(3) element in general; used by smearing and
// plaquette accumulation).
func (a SU3) Add(b SU3) SU3 {
	var c SU3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			c[i][j] = a[i][j] + b[i][j]
		}
	}
	return c
}

// ScaleSU3 returns s*a.
func (a SU3) ScaleSU3(s complex128) SU3 {
	var c SU3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			c[i][j] = s * a[i][j]
		}
	}
	return c
}

// Adj returns the Hermitian conjugate a^dagger.
func (a SU3) Adj() SU3 {
	var c SU3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			x := a[j][i]
			c[i][j] = complex(real(x), -imag(x))
		}
	}
	return c
}

// Trace returns tr(a).
func (a SU3) Trace() complex128 {
	return a[0][0] + a[1][1] + a[2][2]
}

// DistFrom returns the Frobenius distance ||a-b||_F.
func (a SU3) DistFrom(b SU3) float64 {
	s := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			d := a[i][j] - b[i][j]
			s += real(d)*real(d) + imag(d)*imag(d)
		}
	}
	return math.Sqrt(s)
}

// UnitarityError returns ||a a^dagger - 1||_F, the sanity metric the
// tests hold generated and reunitarized links to.
func (a SU3) UnitarityError() float64 {
	return a.Mul(a.Adj()).DistFrom(IdentitySU3())
}

// Reunitarize projects a back onto SU(3) by Gram-Schmidt on the first two
// rows followed by the cross-product completion of the third row, the
// standard lattice reunitarization used after accumulating rounding error.
func (a SU3) Reunitarize() SU3 {
	r0 := [3]complex128{a[0][0], a[0][1], a[0][2]}
	n0 := rowNorm(&r0)
	for i := range r0 {
		r0[i] /= complex(n0, 0)
	}
	r1 := [3]complex128{a[1][0], a[1][1], a[1][2]}
	ip := conjDot3(&r0, &r1)
	for i := range r1 {
		r1[i] -= ip * r0[i]
	}
	n1 := rowNorm(&r1)
	for i := range r1 {
		r1[i] /= complex(n1, 0)
	}
	// r2 = conj(r0 x r1) completes a special-unitary matrix.
	r2 := [3]complex128{
		conj(r0[1]*r1[2] - r0[2]*r1[1]),
		conj(r0[2]*r1[0] - r0[0]*r1[2]),
		conj(r0[0]*r1[1] - r0[1]*r1[0]),
	}
	return SU3{r0, r1, r2}
}

// RandomSU3 draws an approximately Haar-distributed SU(3) element by
// Gram-Schmidt orthonormalization of a complex Gaussian matrix.
func RandomSU3(rng *rand.Rand) SU3 {
	var m SU3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			m[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return m.Reunitarize()
}

// RandomSU3Near returns an SU(3) element near the identity:
// exp-like update 1 + i*eps*H projected back onto the group, with H a
// random traceless Hermitian matrix. eps in (0, 1] controls the step size;
// it is the update kernel of the pseudo-heatbath configuration generator.
func RandomSU3Near(rng *rand.Rand, eps float64) SU3 {
	var h SU3 // Hermitian
	for i := 0; i < 3; i++ {
		h[i][i] = complex(rng.NormFloat64(), 0)
		for j := i + 1; j < 3; j++ {
			re, im := rng.NormFloat64(), rng.NormFloat64()
			h[i][j] = complex(re, im)
			h[j][i] = complex(re, -im)
		}
	}
	tr := h.Trace() / 3
	for i := 0; i < 3; i++ {
		h[i][i] -= tr
	}
	m := IdentitySU3()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			m[i][j] += complex(0, eps) * h[i][j]
		}
	}
	return m.Reunitarize()
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

func rowNorm(r *[3]complex128) float64 {
	s := 0.0
	for _, c := range r {
		s += real(c)*real(c) + imag(c)*imag(c)
	}
	return math.Sqrt(s)
}

func conjDot3(a, b *[3]complex128) complex128 {
	var s complex128
	for i := 0; i < 3; i++ {
		s += conj(a[i]) * b[i]
	}
	return s
}
