// Package contract implements the tensor contractions of the paper's
// workflow (Fig. 2): quark propagators are tied together into hadron
// correlation functions. These are the CPU-only tasks (about 3% of the
// execution time) that mpi_jm co-schedules onto the same nodes as the
// GPU propagator solves. Implemented here: the pion two-point function,
// the proton/neutron two-point function via the standard epsilon-tensor
// diquark contractions, and the Feynman-Hellmann axial three-point
// function from which the effective coupling g_eff(t) - the paper's
// Fig. 1 observable - is built.
package contract

import (
	"math"

	"femtoverse/internal/dirac"
	"femtoverse/internal/linalg"
	"femtoverse/internal/prop"
)

// epsilon holds the non-zero elements of the color Levi-Civita tensor as
// (a, b, c, sign) tuples.
var epsilon = [6]struct {
	a, b, c int
	sign    float64
}{
	{0, 1, 2, +1}, {1, 2, 0, +1}, {2, 0, 1, +1},
	{0, 2, 1, -1}, {2, 1, 0, -1}, {1, 0, 2, -1},
}

// Pion2pt returns the zero-momentum pion correlator
//
//	C(t) = sum_x Tr[S(x,0) S(x,0)^dag],
//
// using gamma_5 hermiticity to fold the backward propagator; it is
// manifestly positive, which the tests exploit.
func Pion2pt(p *prop.Propagator, t0 int) []float64 {
	g := p.G
	tExt := g.T()
	out := make([]float64, tExt)
	for ts := 0; ts < tExt; ts++ {
		slice := g.TimeSlice(ts)
		sum := linalg.ReduceFloat64(len(slice), func(lo, hi int) float64 {
			acc := 0.0
			for k := lo; k < hi; k++ {
				base := slice[k] * dirac.SpinorLen
				for j := 0; j < prop.NComp; j++ {
					col := p.Col[j]
					for i := 0; i < prop.NComp; i++ {
						v := col[base+i]
						acc += real(v)*real(v) + imag(v)*imag(v)
					}
				}
			}
			return acc
		})
		out[(ts-t0+tExt)%tExt] = sum
	}
	return out
}

// spinBlock extracts the 4x4 spin matrix at fixed colors (c, cp) from a
// 12x12 spin-color matrix.
func spinBlock(m *[12][12]complex128, c, cp int) linalg.SpinMatrix {
	var s linalg.SpinMatrix
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			s[a][b] = m[a*3+c][b*3+cp]
		}
	}
	return s
}

// sTilde computes the diquark-conjugated propagator block
// S~ = (C gamma_5) S^T (C gamma_5) where the transpose acts in spin space
// only: C gamma_5 carries no color, so each color block (sink index,
// source index) keeps its indices and only its 4x4 spin matrix is
// transposed. Keeping the color indices in place is what preserves gauge
// invariance of the epsilon-contracted correlator.
func sTilde(m *[12][12]complex128) *[12][12]complex128 {
	cg5 := linalg.CGamma5()
	var out [12][12]complex128
	for c := 0; c < 3; c++ {
		for cp := 0; cp < 3; cp++ {
			// Spin-transposed block at fixed (sink, source) colors.
			var tb linalg.SpinMatrix
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					tb[a][b] = m[b*3+c][a*3+cp]
				}
			}
			blk := cg5.MulSM(tb).MulSM(cg5)
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					out[a*3+c][b*3+cp] = blk[a][b]
				}
			}
		}
	}
	return &out
}

// protonSite evaluates the two Wick contractions of the proton two-point
// function at one site with explicit propagators in the three quark slots
// (u in the a and c slots, d in the b slot):
//
//	sum_{eps eps'} [ tr_s(P U_c^{cc'}) tr_s(U_a^{aa'} D~^{bb'})
//	               + tr_s(P U_c^{cc'} D~^{bb'} U_a^{aa'}) ]
//
// with P the positive-parity projector. Splitting the slots is what makes
// the Feynman-Hellmann insertion (replace one slot with the FH propagator)
// a three-line operation.
func protonSite(uA, uC, dTilde *[12][12]complex128, parity linalg.SpinMatrix) complex128 {
	var total complex128
	for _, e1 := range epsilon {
		for _, e2 := range epsilon {
			sgn := complex(e1.sign*e2.sign, 0)
			bUa := spinBlock(uA, e1.a, e2.a)
			bUc := spinBlock(uC, e1.c, e2.c)
			bDt := spinBlock(dTilde, e1.b, e2.b)

			t1 := parity.MulSM(bUc).TraceSM() * bUa.MulSM(bDt).TraceSM()
			t2 := parity.MulSM(bUc).MulSM(bDt).MulSM(bUa).TraceSM()
			total += sgn * (t1 + t2)
		}
	}
	// The overall minus is the Grassmann-reordering sign of the Wick
	// contraction; with it the positive-parity forward proton is positive.
	return -total
}

// Proton2pt returns the zero-momentum positive-parity proton correlator
// from (possibly distinct) up and down propagators, source time t0.
func Proton2pt(u, d *prop.Propagator, t0 int) []complex128 {
	g := u.G
	tExt := g.T()
	parity := linalg.ParityProjPlus()
	out := make([]complex128, tExt)
	for ts := 0; ts < tExt; ts++ {
		slice := g.TimeSlice(ts)
		sum := linalg.ReduceComplex128(len(slice), func(lo, hi int) complex128 {
			var acc complex128
			for k := lo; k < hi; k++ {
				mu := u.At(slice[k])
				md := d.At(slice[k])
				acc += protonSite(mu, mu, sTilde(md), parity)
			}
			return acc
		})
		out[(ts-t0+tExt)%tExt] = sum
	}
	return out
}

// ProtonFH3pt returns the Feynman-Hellmann three-point correlator of the
// isovector axial current: the derivative of the two-point function with
// respect to the FH coupling, which replaces each quark propagator in
// turn with its FH sequential propagator - both u slots with weight +1
// and the d slot with weight -1 (isovector u - d combination whose
// forward matrix element is gA).
func ProtonFH3pt(u, d, fhU, fhD *prop.Propagator, t0 int) []complex128 {
	g := u.G
	tExt := g.T()
	parity := linalg.ParityProjPlus()
	out := make([]complex128, tExt)
	for ts := 0; ts < tExt; ts++ {
		slice := g.TimeSlice(ts)
		sum := linalg.ReduceComplex128(len(slice), func(lo, hi int) complex128 {
			var acc complex128
			for k := lo; k < hi; k++ {
				mu := u.At(slice[k])
				md := d.At(slice[k])
				mfU := fhU.At(slice[k])
				mfD := fhD.At(slice[k])
				dt := sTilde(md)
				// u insertions: slot a then slot c.
				acc += protonSite(mfU, mu, dt, parity)
				acc += protonSite(mu, mfU, dt, parity)
				// d insertion, weight -1 (isovector).
				acc -= protonSite(mu, mu, sTilde(mfD), parity)
			}
			return acc
		})
		out[(ts-t0+tExt)%tExt] = sum
	}
	return out
}

// Real extracts the real parts of a complex correlator (the imaginary
// part of a zero-momentum parity-projected correlator averages to zero).
func Real(c []complex128) []float64 {
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = real(v)
	}
	return out
}

// EffectiveMass returns m_eff(t) = log(C(t)/C(t+1)) for t in
// [0, len(C)-2]; entries where the ratio is non-positive are NaN.
func EffectiveMass(c []float64) []float64 {
	out := make([]float64, len(c)-1)
	for t := 0; t+1 < len(c); t++ {
		r := c[t] / c[t+1]
		if r > 0 {
			out[t] = math.Log(r)
		} else {
			out[t] = math.NaN()
		}
	}
	return out
}

// EffectiveGA builds the paper's Fig. 1 observable from the FH ratio
// R(t) = C_FH(t) / C_2pt(t):
//
//	g_eff(t) = R(t+1) - R(t),
//
// which plateaus at gA as excited-state contamination dies off.
func EffectiveGA(c3, c2 []float64) []float64 {
	n := len(c3) - 1
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		out[t] = c3[t+1]/c2[t+1] - c3[t]/c2[t]
	}
	return out
}
