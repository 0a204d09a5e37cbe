package dirac

import (
	"fmt"

	"femtoverse/internal/gauge"
)

// Mobius is the 5-D Mobius domain-wall operator D(m). It owns scratch
// buffers, so a single instance must not be used from multiple goroutines
// concurrently.
type Mobius struct {
	W  *Wilson // 4-D kernel with Mass = -M5
	Ls int
	B5 float64
	C5 float64
	M  float64 // bare quark mass m_f

	chi []complex128
	cmb []complex128
}

// MobiusParams collects the physics parameters of the operator.
type MobiusParams struct {
	Ls int     // fifth-dimension extent
	M5 float64 // domain-wall height, typically 1.0-1.8
	B5 float64 // Mobius b5 coefficient (b5 = 1, c5 = 0 is Shamir)
	C5 float64 // Mobius c5 coefficient
	M  float64 // bare quark mass
}

// Validate checks the parameter ranges.
func (p MobiusParams) Validate() error {
	if p.Ls < 2 {
		return fmt.Errorf("dirac: Ls = %d; need >= 2", p.Ls)
	}
	if p.M5 <= 0 || p.M5 >= 2 {
		return fmt.Errorf("dirac: M5 = %g outside (0, 2)", p.M5)
	}
	if p.B5 <= 0 {
		return fmt.Errorf("dirac: b5 = %g must be positive", p.B5)
	}
	if p.M < 0 {
		return fmt.Errorf("dirac: quark mass %g must be non-negative", p.M)
	}
	return nil
}

// NewMobius builds the operator over a gauge field.
func NewMobius(u *gauge.Field, p MobiusParams) (*Mobius, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Mobius{
		W:  NewWilson(u, -p.M5),
		Ls: p.Ls,
		B5: p.B5,
		C5: p.C5,
		M:  p.M,
	}
	n := m.Size()
	m.chi = make([]complex128, n)
	m.cmb = make([]complex128, n)
	return m, nil
}

// Size returns the number of complex components of a compatible 5-D field.
func (m *Mobius) Size() int { return m.Ls * m.W.G.Vol * SpinorLen }

// vol4 returns the per-slice component count.
func (m *Mobius) vol4() int { return m.W.G.Vol * SpinorLen }

// slice returns the s-th 4-D slice of a 5-D field.
func (m *Mobius) slice(f []complex128, s int) []complex128 {
	v := m.vol4()
	return f[s*v : (s+1)*v]
}

// chiApply computes dst = chi(src) (dagger = false) or chi^dagger(src)
// (dagger = true), where
//
//	(chi psi)_s        = P- psi_{s+1} + P+ psi_{s-1}
//	(chi^dag psi)_s    = P- psi_{s-1} + P+ psi_{s+1}
//
// with the chiral boundary wrap multiplied by -m. In the DeGrand-Rossi
// basis P+ keeps spins {0,1} and P- keeps spins {2,3}, so the projection
// is pure component selection. dst must not alias src.
func chiApply(dst, src []complex128, ls, vol4 int, mf float64, dagger bool) {
	for s := 0; s < ls; s++ {
		sp, pwr, sm, mwr := chiNeighbours(s, ls, -mf, dagger)
		pw, mw := complex(pwr, 0), complex(mwr, 0)
		d := dst[s*vol4 : (s+1)*vol4]
		up := src[sp*vol4 : (sp+1)*vol4]
		dn := src[sm*vol4 : (sm+1)*vol4]
		for site := 0; site < vol4; site += SpinorLen {
			for i := 0; i < 6; i++ {
				d[site+i] = pw * up[site+i]
			}
			for i := 6; i < 12; i++ {
				d[site+i] = mw * dn[site+i]
			}
		}
	}
}

// Apply computes dst = D(m) src.
func (m *Mobius) Apply(dst, src []complex128) {
	if len(dst) != m.Size() || len(src) != m.Size() {
		panic("dirac: Mobius.Apply size mismatch")
	}
	chiApply(m.chi, src, m.Ls, m.vol4(), m.M, false)
	b5 := complex(m.B5, 0)
	c5 := complex(m.C5, 0)
	for i := range src {
		m.cmb[i] = b5*src[i] + c5*m.chi[i]
	}
	for s := 0; s < m.Ls; s++ {
		m.W.Apply(m.slice(dst, s), m.slice(m.cmb, s))
	}
	for i := range src {
		dst[i] += src[i] - m.chi[i]
	}
}

// ApplyDagger computes dst = D(m)^dagger src using
// D^dag = (b5 + c5 chi^dag) Dw^dag + 1 - chi^dag and the gamma_5
// hermiticity of the 4-D kernel, Dw^dag = gamma_5 Dw gamma_5.
func (m *Mobius) ApplyDagger(dst, src []complex128) {
	if len(dst) != m.Size() || len(src) != m.Size() {
		panic("dirac: Mobius.ApplyDagger size mismatch")
	}
	// cmb = Dw^dag src, slice by slice.
	for s := 0; s < m.Ls; s++ {
		m.W.ApplyDagger(m.slice(m.cmb, s), m.slice(src, s))
	}
	// dst = b5*y + c5*chi^dag(y) + src - chi^dag(src), y = Dw^dag src.
	chiApply(m.chi, m.cmb, m.Ls, m.vol4(), m.M, true)
	b5 := complex(m.B5, 0)
	c5 := complex(m.C5, 0)
	for i := range src {
		dst[i] = b5*m.cmb[i] + c5*m.chi[i] + src[i]
	}
	chiApply(m.chi, src, m.Ls, m.vol4(), m.M, true)
	for i := range src {
		dst[i] -= m.chi[i]
	}
}

// Flops returns the flop count of one Apply: Ls Wilson applications plus
// the fifth-dimension and Mobius axpy arithmetic (8 real ops per complex
// component for the two elementwise passes plus the chi construction).
func (m *Mobius) Flops() int64 {
	wilson := int64(m.Ls) * m.W.Flops()
	aux := int64(m.Size()) * 14
	return wilson + aux
}
