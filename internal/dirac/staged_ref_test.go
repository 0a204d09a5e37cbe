package dirac

import (
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// The staged Schur kernels, as they stood before the fused site loops
// replaced them: one whole-vector sweep per stage (chi, axpby, hop, M5inv,
// gamma_5), the generic hopAccum with run-time projector signs, a fresh
// LexToEO lookup per hop. They survive here, serial and unexported, as the
// reference the fused Apply/ApplyDagger/PrepareSource/Reconstruct must
// reproduce bit for bit (TestFusedSchurMatchesStagedBitForBit), and so
// that the stage-level identities (A^{-1} A = 1, adjointness of A and B,
// half hop = full hop restricted to a parity) stay tested. The 4-D Wilson
// operator has its generic composition here too (refWilson), which the
// flat operator and the rank-local stencil of package domain are held to
// (TestWilsonHopMatchesGenericBitForBit).

// hopAccum is the generic hop, the one the specialised Hop replaced:
//
//	out += -1/2 (1 + projSign*gamma_mu) U(or U^dag) in
//
// It reads gamma_mu off linalg's GammaPerm/GammaPhase tables, multiplies
// the +-1/+-i phases out as general complex numbers and loops over the
// colours. Each colour product is a row summed left to right, the
// adjoint's from +0. adjoint selects U^dag (backward hop).
func hopAccum(out, in []complex128, u *linalg.SU3, mu, projSign int, adjoint bool) {
	p0 := linalg.GammaPerm[mu][0]
	p1 := linalg.GammaPerm[mu][1]
	ph0 := linalg.GammaPhase[mu][0]
	ph1 := linalg.GammaPhase[mu][1]
	sgn := complex(float64(projSign), 0)

	var h0, h1 [3]complex128
	for c := 0; c < 3; c++ {
		h0[c] = in[0*3+c] + sgn*ph0*in[p0*3+c]
		h1[c] = in[1*3+c] + sgn*ph1*in[p1*3+c]
	}
	var uh0, uh1 [3]complex128
	for i := 0; i < 3; i++ {
		if adjoint {
			for j := 0; j < 3; j++ {
				x := complex(real(u[j][i]), -imag(u[j][i]))
				uh0[i] += x * h0[j]
				uh1[i] += x * h1[j]
			}
		} else {
			uh0[i] = u[i][0]*h0[0] + u[i][1]*h0[1] + u[i][2]*h0[2]
			uh1[i] = u[i][0]*h1[0] + u[i][1]*h1[1] + u[i][2]*h1[2]
		}
	}
	// Reconstruction: component p0 carries projSign*conj(ph0) times the
	// projected upper component (gamma_mu^2 = 1 makes the phases inverses).
	r0 := sgn * complex(real(ph0), -imag(ph0))
	r1 := sgn * complex(real(ph1), -imag(ph1))
	for c := 0; c < 3; c++ {
		out[0*3+c] -= 0.5 * uh0[c]
		out[1*3+c] -= 0.5 * uh1[c]
		out[p0*3+c] -= 0.5 * r0 * uh0[c]
		out[p1*3+c] -= 0.5 * r1 * uh1[c]
	}
}

// refWilson is the 4-D Wilson operator composed from the generic hop, as
// whole-vector sweeps: dst = D src, or with dagger gamma_5 D gamma_5 src.
// Per site the accumulator starts at the complex product diag*src and the
// hops are subtracted in mu order, forward then backward.
func refWilson(w *Wilson, dst, src []complex128, dagger bool) {
	in := src
	if dagger {
		in = make([]complex128, len(src))
		Gamma5(in, src)
	}
	diag := complex(4+w.Mass, 0)
	g := w.G
	for s := 0; s < g.Vol; s++ {
		out := dst[s*SpinorLen : (s+1)*SpinorLen]
		for i := range out {
			out[i] = diag * in[s*SpinorLen+i]
		}
		for mu := 0; mu < lattice.NDim; mu++ {
			fw, bw := g.Fwd(s, mu), g.Bwd(s, mu)
			hopAccum(out, in[fw*SpinorLen:(fw+1)*SpinorLen], &w.U.U[mu][s], mu, -1, false)
			hopAccum(out, in[bw*SpinorLen:(bw+1)*SpinorLen], &w.U.U[mu][bw], mu, +1, true)
		}
	}
	if dagger {
		Gamma5(dst, dst)
	}
}

// scalarWilson is the flat Wilson operator's serial site loop before the
// site body: per site the mass term and the eight scalar hops in mu order,
// forward then backward, with the gamma_5 of the dagger applied to a stack
// copy of every spinor the site reads and to its result. It is the
// reference BenchmarkWilsonDslashPaired times the site body against.
func scalarWilson(w *Wilson, dst, src []complex128, dagger bool) {
	diag := complex(4+w.Mass, 0)
	g := w.G
	var in5, nb5 [SpinorLen]complex128
	for s := 0; s < g.Vol; s++ {
		out := (*[SpinorLen]complex128)(dst[s*SpinorLen:])
		in := (*[SpinorLen]complex128)(src[s*SpinorLen:])
		if dagger {
			gamma5Spinor(in5[:], in[:])
			in = &in5
		}
		for i := range out {
			out[i] = diag * in[i]
		}
		for mu := 0; mu < lattice.NDim; mu++ {
			fw, bw := g.Fwd(s, mu), g.Bwd(s, mu)
			nf := (*[SpinorLen]complex128)(src[fw*SpinorLen:])
			nb := (*[SpinorLen]complex128)(src[bw*SpinorLen:])
			if dagger {
				gamma5Spinor(in5[:], nf[:])
				gamma5Spinor(nb5[:], nb[:])
				nf, nb = &in5, &nb5
			}
			hop(out, nf, &w.U.U[mu][s], 2*mu)
			hop(out, nb, &w.U.U[mu][bw], 2*mu+1)
		}
		if dagger {
			gamma5Spinor(out[:], out[:])
		}
	}
}

func (p *MobiusEO) hopHalf(dst, src []complex128, pOut int) {
	g := p.M.W.G
	eo := p.EO
	hv := p.HalfVol()
	u := &p.M.W.U.U
	for s5 := 0; s5 < p.M.Ls; s5++ {
		off := s5 * hv * SpinorLen
		for i := 0; i < hv; i++ {
			out := dst[off+i*SpinorLen : off+(i+1)*SpinorLen]
			for k := range out {
				out[k] = 0
			}
			lex := int(eo.EOToLex[pOut][i])
			for mu := 0; mu < 4; mu++ {
				fwLex := g.Fwd(lex, mu)
				j := int(eo.LexToEO[fwLex])
				hopAccum(out, src[off+j*SpinorLen:off+(j+1)*SpinorLen], &u[mu][lex], mu, -1, false)
				bwLex := g.Bwd(lex, mu)
				j = int(eo.LexToEO[bwLex])
				hopAccum(out, src[off+j*SpinorLen:off+(j+1)*SpinorLen], &u[mu][bwLex], mu, +1, true)
			}
		}
	}
}

func (p *MobiusEO) applyB(dst, src []complex128, dagger bool) {
	chiApply(dst, src, p.M.Ls, p.HalfVol()*SpinorLen, p.M.M, dagger)
	b5 := complex(p.M.B5, 0)
	c5 := complex(p.M.C5, 0)
	for i := range src {
		dst[i] = b5*src[i] + c5*dst[i]
	}
}

func (p *MobiusEO) applyA(dst, src []complex128, dagger bool) {
	chiApply(dst, src, p.M.Ls, p.HalfVol()*SpinorLen, p.M.M, dagger)
	a := complex(p.a, 0)
	c := complex(p.c, 0)
	for i := range src {
		dst[i] = a*src[i] + c*dst[i]
	}
}

func (p *MobiusEO) applyAInv(dst, src []complex128, dagger bool) {
	mP, mM := p.minvP, p.minvM
	if dagger {
		mP, mM = p.minvM, p.minvP
	}
	ls := p.M.Ls
	hv := p.HalfVol()
	stride := hv * SpinorLen
	for i := 0; i < hv; i++ {
		base := i * SpinorLen
		for comp := 0; comp < SpinorLen; comp++ {
			m := mP
			if comp >= 6 {
				m = mM
			}
			for sOut := 0; sOut < ls; sOut++ {
				var acc complex128
				row := m[sOut*ls : (sOut+1)*ls]
				for sIn := 0; sIn < ls; sIn++ {
					if row[sIn] == 0 {
						continue
					}
					acc += complex(row[sIn], 0) * src[sIn*stride+base+comp]
				}
				dst[sOut*stride+base+comp] = acc
			}
		}
	}
}

func (p *MobiusEO) scratch() (t1, t2, t3 []complex128) {
	n := p.HalfSize()
	return make([]complex128, n), make([]complex128, n), make([]complex128, n)
}

func (p *MobiusEO) refApply(dst, src []complex128) {
	t1, t2, t3 := p.scratch()
	p.applyB(t1, src, false)
	p.hopHalf(t2, t1, 1)
	p.applyAInv(t1, t2, false)
	p.applyB(t2, t1, false)
	p.hopHalf(t3, t2, 0)
	p.applyA(dst, src, false)
	linalg.Axpy(-1, t3, dst)
}

func (p *MobiusEO) refApplyDagger(dst, src []complex128) {
	t1, t2, t3 := p.scratch()
	Gamma5(t1, src)
	p.hopHalf(t2, t1, 1)
	Gamma5(t2, t2)
	p.applyB(t1, t2, true)
	p.applyAInv(t2, t1, true)
	Gamma5(t1, t2)
	p.hopHalf(t3, t1, 0)
	Gamma5(t3, t3)
	p.applyB(t1, t3, true)
	p.applyA(dst, src, true)
	linalg.Axpy(-1, t1, dst)
}

func (p *MobiusEO) refPrepareSource(eta []complex128) (bhat, etaOdd []complex128) {
	t1, t2, t3 := p.scratch()
	bhat = make([]complex128, p.HalfSize())
	etaOdd = make([]complex128, p.HalfSize())
	p.GatherParity5D(0, eta, bhat)
	p.GatherParity5D(1, eta, etaOdd)
	p.applyAInv(t1, etaOdd, false)
	p.applyB(t2, t1, false)
	p.hopHalf(t3, t2, 0)
	linalg.Axpy(-1, t3, bhat)
	return bhat, etaOdd
}

func (p *MobiusEO) refReconstruct(psiEven, etaOdd []complex128) []complex128 {
	t1, t2, t3 := p.scratch()
	p.applyB(t1, psiEven, false)
	p.hopHalf(t2, t1, 1)
	linalg.AxpyZ(-1, t2, etaOdd, t3)
	p.applyAInv(t1, t3, false)
	full := make([]complex128, p.M.Size())
	p.ScatterParity5D(0, psiEven, full)
	p.ScatterParity5D(1, t1, full)
	return full
}

// Single precision.

func gamma5C64(dst, src []complex64) {
	for base := 0; base < len(src); base += SpinorLen {
		for i := 0; i < 6; i++ {
			dst[base+i] = src[base+i]
		}
		for i := 6; i < 12; i++ {
			dst[base+i] = -src[base+i]
		}
	}
}

func chiApply32(dst, src []complex64, ls, vol int, mf float32, dagger bool) {
	for s := 0; s < ls; s++ {
		sp := s - 1
		pw := float32(1)
		if dagger {
			sp = s + 1
		}
		if sp < 0 {
			sp, pw = ls-1, -mf
		} else if sp >= ls {
			sp, pw = 0, -mf
		}
		sm := s + 1
		mw := float32(1)
		if dagger {
			sm = s - 1
		}
		if sm >= ls {
			sm, mw = 0, -mf
		} else if sm < 0 {
			sm, mw = ls-1, -mf
		}
		d := dst[s*vol : (s+1)*vol]
		up := src[sp*vol : (sp+1)*vol]
		dn := src[sm*vol : (sm+1)*vol]
		for site := 0; site < vol; site += SpinorLen {
			for i := 0; i < 6; i++ {
				v := up[site+i]
				d[site+i] = complex(pw*real(v), pw*imag(v))
			}
			for i := 6; i < 12; i++ {
				v := dn[site+i]
				d[site+i] = complex(mw*real(v), mw*imag(v))
			}
		}
	}
}

// hopAccum32 is the single-precision hopping kernel. The arithmetic is
// written out in explicit float32 real/imaginary components because the
// Go compiler lowers complex64 multiplication through complex128, which
// costs more than 2x on this hot path.
func hopAccum32(out, in []complex64, u *SU3C64, mu, projSign int, adjoint bool) {
	p0 := linalg.GammaPerm[mu][0]
	p1 := linalg.GammaPerm[mu][1]
	ph0c := linalg.GammaPhase[mu][0]
	ph1c := linalg.GammaPhase[mu][1]
	s := float32(projSign)
	ph0r, ph0i := s*float32(real(ph0c)), s*float32(imag(ph0c))
	ph1r, ph1i := s*float32(real(ph1c)), s*float32(imag(ph1c))

	// Projected half-spinors h0, h1 as separate re/im arrays.
	var h0r, h0i, h1r, h1i [3]float32
	for c := 0; c < 3; c++ {
		a := in[p0*3+c]
		ar, ai := real(a), imag(a)
		h0r[c] = real(in[c]) + ph0r*ar - ph0i*ai
		h0i[c] = imag(in[c]) + ph0r*ai + ph0i*ar
		b := in[p1*3+c]
		br, bi := real(b), imag(b)
		h1r[c] = real(in[3+c]) + ph1r*br - ph1i*bi
		h1i[c] = imag(in[3+c]) + ph1r*bi + ph1i*br
	}
	var u0r, u0i, u1r, u1i [3]float32
	if adjoint {
		for i := 0; i < 3; i++ {
			var s0r, s0i, s1r, s1i float32
			for j := 0; j < 3; j++ {
				mr, mi := real(u[j][i]), -imag(u[j][i])
				s0r += mr*h0r[j] - mi*h0i[j]
				s0i += mr*h0i[j] + mi*h0r[j]
				s1r += mr*h1r[j] - mi*h1i[j]
				s1i += mr*h1i[j] + mi*h1r[j]
			}
			u0r[i], u0i[i] = s0r, s0i
			u1r[i], u1i[i] = s1r, s1i
		}
	} else {
		for i := 0; i < 3; i++ {
			var s0r, s0i, s1r, s1i float32
			for j := 0; j < 3; j++ {
				mr, mi := real(u[i][j]), imag(u[i][j])
				s0r += mr*h0r[j] - mi*h0i[j]
				s0i += mr*h0i[j] + mi*h0r[j]
				s1r += mr*h1r[j] - mi*h1i[j]
				s1i += mr*h1i[j] + mi*h1r[j]
			}
			u0r[i], u0i[i] = s0r, s0i
			u1r[i], u1i[i] = s1r, s1i
		}
	}
	// Reconstruction phases r = projSign * conj(ph).
	r0r, r0i := ph0r, -ph0i
	r1r, r1i := ph1r, -ph1i
	for c := 0; c < 3; c++ {
		out[c] -= complex(0.5*u0r[c], 0.5*u0i[c])
		out[3+c] -= complex(0.5*u1r[c], 0.5*u1i[c])
		out[p0*3+c] -= complex(0.5*(r0r*u0r[c]-r0i*u0i[c]), 0.5*(r0r*u0i[c]+r0i*u0r[c]))
		out[p1*3+c] -= complex(0.5*(r1r*u1r[c]-r1i*u1i[c]), 0.5*(r1r*u1i[c]+r1i*u1r[c]))
	}
}

func (q *MobiusEO32) hopHalf(dst, src []complex64, pOut int) {
	g := q.P.M.W.G
	eo := q.P.EO
	hv := q.P.HalfVol()
	u := &q.U.U
	for s5 := 0; s5 < q.P.M.Ls; s5++ {
		off := s5 * hv * SpinorLen
		for i := 0; i < hv; i++ {
			out := dst[off+i*SpinorLen : off+(i+1)*SpinorLen]
			for k := range out {
				out[k] = 0
			}
			lex := int(eo.EOToLex[pOut][i])
			for mu := 0; mu < 4; mu++ {
				fwLex := g.Fwd(lex, mu)
				j := int(eo.LexToEO[fwLex])
				hopAccum32(out, src[off+j*SpinorLen:off+(j+1)*SpinorLen], &u[mu][lex], mu, -1, false)
				bwLex := g.Bwd(lex, mu)
				j = int(eo.LexToEO[bwLex])
				hopAccum32(out, src[off+j*SpinorLen:off+(j+1)*SpinorLen], &u[mu][bwLex], mu, +1, true)
			}
		}
	}
}

func (q *MobiusEO32) applyBA(dst, src []complex64, w0, w1 float32, dagger bool) {
	chiApply32(dst, src, q.P.M.Ls, q.P.HalfVol()*SpinorLen, q.m, dagger)
	for i := range src {
		s, d := src[i], dst[i]
		dst[i] = complex(w0*real(s)+w1*real(d), w0*imag(s)+w1*imag(d))
	}
}

func (q *MobiusEO32) applyB(dst, src []complex64, dagger bool) {
	q.applyBA(dst, src, q.b5, q.c5, dagger)
}

func (q *MobiusEO32) applyA(dst, src []complex64, dagger bool) {
	q.applyBA(dst, src, q.a, q.c, dagger)
}

func (q *MobiusEO32) applyAInv(dst, src []complex64, dagger bool) {
	mP, mM := q.minvP, q.minvM
	if dagger {
		mP, mM = q.minvM, q.minvP
	}
	ls := q.P.M.Ls
	hv := q.P.HalfVol()
	stride := hv * SpinorLen
	for i := 0; i < hv; i++ {
		base := i * SpinorLen
		for comp := 0; comp < SpinorLen; comp++ {
			m := mP
			if comp >= 6 {
				m = mM
			}
			for sOut := 0; sOut < ls; sOut++ {
				var accR, accI float32
				row := m[sOut*ls : (sOut+1)*ls]
				for sIn := 0; sIn < ls; sIn++ {
					w := row[sIn]
					if w == 0 {
						continue
					}
					v := src[sIn*stride+base+comp]
					accR += w * real(v)
					accI += w * imag(v)
				}
				dst[sOut*stride+base+comp] = complex(accR, accI)
			}
		}
	}
}

func (q *MobiusEO32) scratch() (t1, t2, t3 []complex64) {
	n := q.Size()
	return make([]complex64, n), make([]complex64, n), make([]complex64, n)
}

func (q *MobiusEO32) refApply(dst, src []complex64) {
	t1, t2, t3 := q.scratch()
	q.applyB(t1, src, false)
	q.hopHalf(t2, t1, 1)
	q.applyAInv(t1, t2, false)
	q.applyB(t2, t1, false)
	q.hopHalf(t3, t2, 0)
	q.applyA(dst, src, false)
	linalg.AxpyC64(-1, t3, dst)
}

func (q *MobiusEO32) refApplyDagger(dst, src []complex64) {
	t1, t2, t3 := q.scratch()
	gamma5C64(t1, src)
	q.hopHalf(t2, t1, 1)
	gamma5C64(t2, t2)
	q.applyB(t1, t2, true)
	q.applyAInv(t2, t1, true)
	gamma5C64(t1, t2)
	q.hopHalf(t3, t1, 0)
	gamma5C64(t3, t3)
	q.applyB(t1, t3, true)
	q.applyA(dst, src, true)
	linalg.AxpyC64(-1, t1, dst)
}
