package dirac

import (
	"fmt"

	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// MobiusEO is the red-black (even-odd) Schur-preconditioned Mobius
// operator, the system the paper's production solver inverts. Writing the
// full operator in 4-D parity blocks (the fifth dimension does not change
// 4-D parity),
//
//	D = [ A    K_eo ]        A = a + c*chi        a = (4-M5)*b5 + 1
//	    [ K_oe  A   ]        K = Hop o B          c = (4-M5)*c5 - 1
//
// where Hop is the parity-flipping Wilson hopping term (with its -1/2) and
// B = b5 + c5*chi, the Schur complement on the even sublattice is
//
//	Dhat = A - K_eo A^{-1} K_oe.
//
// A acts site-diagonally in 4-D and bidiagonally (plus the -m chiral wrap)
// in the fifth dimension, so A^{-1} is a precomputed dense Ls x Ls matrix
// per chirality - QUDA's M5inv kernel. The preconditioned solve works on
// half-volume fields of layout (s*HalfVol + i)*12 + comp.
type MobiusEO struct {
	M  *Mobius
	EO *lattice.EvenOdd

	a, c float64
	// minvP / minvM are the Ls x Ls inverses of A restricted to the P+
	// (spins 0,1) and P- (spins 2,3) chirality sectors; minvM is the
	// transpose of minvP because the sectors are transposes of each other.
	minvP, minvM []float64

	// Workers, when positive, is the split width of this operator's own
	// site loops; zero defers to M.W.Workers. It is how a lane (View) runs
	// narrower than its siblings' shared configuration; like every split
	// width it cannot change a bit of the result.
	Workers int

	// Everything above is read-only once built and shared by every View;
	// everything below is one applier's own.

	// Scratch half-fields (Ls * HalfVol * SpinorLen each).
	t1, t2, t3 []complex128

	// The pass in flight: which site loop, on what. sites is bound once at
	// construction so that handing it to linalg.ForBlocked builds no
	// closure per application.
	stage    schurStage
	dst, src []complex128
	sites    func(lo, hi int)
}

// NewMobiusEO builds the preconditioned operator from a Mobius operator.
func NewMobiusEO(m *Mobius) (*MobiusEO, error) {
	wkernel := 4 + m.W.Mass // = 4 - M5, the Wilson-kernel diagonal
	p := &MobiusEO{
		M:  m,
		EO: lattice.NewEvenOdd(m.W.G),
		a:  wkernel*m.B5 + 1,
		c:  wkernel*m.C5 - 1,
	}
	ls := m.Ls
	// A restricted to the P+ sector: a on the diagonal, c on the
	// subdiagonal, -m*c in the upper-right corner.
	ap := make([]float64, ls*ls)
	for s := 0; s < ls; s++ {
		ap[s*ls+s] = p.a
		if s > 0 {
			ap[s*ls+s-1] = p.c
		}
	}
	ap[0*ls+ls-1] += -m.M * p.c
	inv, err := linalg.InvReal(ls, ap)
	if err != nil {
		return nil, fmt.Errorf("dirac: fifth-dimension operator singular (a=%g, c=%g, m=%g): %w", p.a, p.c, m.M, err)
	}
	p.minvP = inv
	p.minvM = linalg.TransposeReal(ls, inv)
	p.ownScratch()
	return p, nil
}

// ownScratch gives p the state no two appliers may share: the scratch
// half-fields and the bound site loop.
func (p *MobiusEO) ownScratch() {
	n := p.HalfSize()
	p.t1 = make([]complex128, n)
	p.t2 = make([]complex128, n)
	p.t3 = make([]complex128, n)
	p.sites = p.runSites
}

// View returns an operator that is p to the bit - the same Mobius
// operator, even-odd tables and fifth-dimension inverses, by reference -
// but applies through scratch and pass state of its own, so that p and any
// number of views may run Apply, ApplyDagger, PrepareSource and
// Reconstruct at the same time. It costs three half-fields. Changes to
// the shared M (its launch parameters, say) reach every view; each view's
// Workers is its own.
func (p *MobiusEO) View() *MobiusEO {
	v := &MobiusEO{M: p.M, EO: p.EO, a: p.a, c: p.c, minvP: p.minvP, minvM: p.minvM}
	v.ownScratch()
	return v
}

// HalfVol returns the number of 4-D sites per parity block.
func (p *MobiusEO) HalfVol() int { return p.EO.HalfVol() }

// HalfSize returns the component count of a half-volume 5-D field.
func (p *MobiusEO) HalfSize() int { return p.M.Ls * p.HalfVol() * SpinorLen }

// Size implements the solver operator interface on half fields.
func (p *MobiusEO) Size() int { return p.HalfSize() }

// schurStage names one fused pass over a parity block. Each pass carries
// every site of its range through all of the pass's stages while the
// site's fibre - its Ls slices of 12 components - is hot in cache, so no
// intermediate vector is swept a second time:
//
//	Apply        stageB         t1_e = B x_e
//	             stageInner     t2_o = B A^{-1} Hop_oe t1
//	             stageOuter     dst_e = A x_e - Hop_eo t2
//	ApplyDagger  stageInnerDag  t2_o = A^{-dag} B^dag g5 Hop_oe g5 x_e
//	             stageOuterDag  dst_e = A^dag x_e - B^dag g5 Hop_eo g5 t2
//	PrepareSource stageFibre    t2_o = B A^{-1} eta_o
//	             stagePrepare   bhat_e -= Hop_eo t2
//	Reconstruct  stageB, then
//	             stageRecon     t2_o = A^{-1} (eta_o - Hop_oe t1)
//
// Only a hop reads other sites, and it reads the previous pass's vector,
// so the sites of a pass are independent and any split of the range over
// workers gives the same bits.
type schurStage uint8

const (
	stageB schurStage = iota
	stageInner
	stageOuter
	stageInnerDag
	stageOuterDag
	stageFibre
	stagePrepare
	stageRecon
)

func (p *MobiusEO) run(st schurStage, dst, src []complex128) {
	p.stage, p.dst, p.src = st, dst, src
	w := p.M.W
	linalg.ForBlocked(p.HalfVol(), ownWidth(p.Workers, w.Workers), w.Block, p.sites)
	p.dst, p.src = nil, nil
}

// ownWidth is an operator's split width: its own when set, the shared
// configuration's otherwise.
func ownWidth(own, shared int) int {
	if own > 0 {
		return own
	}
	return shared
}

// runSites is the body of every pass: sites [lo, hi) of the pass's parity
// block.
func (p *MobiusEO) runSites(lo, hi int) {
	t1, t2, t3, dst, src := p.t1, p.t2, p.t3, p.dst, p.src
	b5, c5, a, c := complex(p.M.B5, 0), complex(p.M.C5, 0), complex(p.a, 0), complex(p.c, 0)
	for i := lo; i < hi; i++ {
		switch p.stage {
		case stageB:
			p.fibreBA(t1, src, i, b5, c5, false)
		case stageInner:
			p.fibreHop(t2, t1, 1, i, false)
			p.fibreAInv(t3, t2, i, false)
			p.fibreBA(t2, t3, i, b5, c5, false)
		case stageOuter:
			p.fibreHop(t3, t2, 0, i, false)
			p.fibreBA(dst, src, i, a, c, false)
			p.fibreAxpy(dst, t3, dst, i)
		case stageInnerDag:
			p.fibreHop(t2, src, 1, i, true)
			p.fibreBA(t1, t2, i, b5, c5, true)
			p.fibreAInv(t2, t1, i, true)
		case stageOuterDag:
			p.fibreHop(t3, t2, 0, i, true)
			p.fibreBA(t1, t3, i, b5, c5, true)
			p.fibreBA(dst, src, i, a, c, true)
			p.fibreAxpy(dst, t1, dst, i)
		case stageFibre:
			p.fibreAInv(t1, src, i, false)
			p.fibreBA(t2, t1, i, b5, c5, false)
		case stagePrepare:
			p.fibreHop(t3, t2, 0, i, false)
			p.fibreAxpy(dst, t3, dst, i)
		case stageRecon:
			p.fibreHop(t2, t1, 1, i, false)
			p.fibreAxpy(t3, t2, src, i)
			p.fibreAInv(t2, t3, i, false)
		}
	}
}

// chiNeighbours returns, for slice s, the slices feeding the P+ (spins
// 0,1) and P- (spins 2,3) sectors of chi (or chi^dagger) and their
// weights: 1 in the bulk, wrap = -m across the chiral boundary.
func chiNeighbours[F float32 | float64](s, ls int, wrap F, dagger bool) (sp int, pw F, sm int, mw F) {
	sp, sm = s-1, s+1
	if dagger {
		sp, sm = s+1, s-1
	}
	pw, mw = 1, 1
	if sp < 0 {
		sp, pw = ls-1, wrap
	} else if sp >= ls {
		sp, pw = 0, wrap
	}
	if sm >= ls {
		sm, mw = 0, wrap
	} else if sm < 0 {
		sm, mw = ls-1, wrap
	}
	return sp, pw, sm, mw
}

// fibreBA sets dst = (w0 + w1*chi) src, or its dagger, on the fibre of
// site i: B for (b5, c5), A for (a, c). dst must not alias src.
func (p *MobiusEO) fibreBA(dst, src []complex128, i int, w0, w1 complex128, dagger bool) {
	ls := p.M.Ls
	stride := p.HalfVol() * SpinorLen
	base := i * SpinorLen
	for s := 0; s < ls; s++ {
		sp, pwr, sm, mwr := chiNeighbours(s, ls, -p.M.M, dagger)
		pw, mw := complex(pwr, 0), complex(mwr, 0)
		d := (*[SpinorLen]complex128)(dst[s*stride+base:])
		x := (*[SpinorLen]complex128)(src[s*stride+base:])
		up := (*[SpinorLen]complex128)(src[sp*stride+base:])
		dn := (*[SpinorLen]complex128)(src[sm*stride+base:])
		for k := 0; k < 6; k++ {
			d[k] = w0*x[k] + w1*(pw*up[k])
		}
		for k := 6; k < SpinorLen; k++ {
			d[k] = w0*x[k] + w1*(mw*dn[k])
		}
	}
}

// fibreAInv sets dst = A^{-1} src (or A^{-dagger} src) on the fibre of
// site i via the dense fifth-dimension inverses. dst must not alias src.
func (p *MobiusEO) fibreAInv(dst, src []complex128, i int, dagger bool) {
	mP, mM := p.minvP, p.minvM
	if dagger {
		mP, mM = p.minvM, p.minvP
	}
	ls := p.M.Ls
	stride := p.HalfVol() * SpinorLen
	base := i * SpinorLen
	for sOut := 0; sOut < ls; sOut++ {
		var acc [SpinorLen]complex128
		for sIn := 0; sIn < ls; sIn++ {
			v := (*[SpinorLen]complex128)(src[sIn*stride+base:])
			if w := mP[sOut*ls+sIn]; w != 0 {
				for k := 0; k < 6; k++ {
					acc[k] += complex(w, 0) * v[k]
				}
			}
			if w := mM[sOut*ls+sIn]; w != 0 {
				for k := 6; k < SpinorLen; k++ {
					acc[k] += complex(w, 0) * v[k]
				}
			}
		}
		*(*[SpinorLen]complex128)(dst[sOut*stride+base:]) = acc
	}
}

// fibreAxpy sets z = (-1)*x + y on the fibre of site i, spelled as the
// complex axpy it replaces so that signed zeros come out the same. z may
// alias y.
func (p *MobiusEO) fibreAxpy(z, x, y []complex128, i int) {
	minus := complex(-1, 0)
	ls := p.M.Ls
	stride := p.HalfVol() * SpinorLen
	base := i * SpinorLen
	for s := 0; s < ls; s++ {
		zs := (*[SpinorLen]complex128)(z[s*stride+base:])
		xs := (*[SpinorLen]complex128)(x[s*stride+base:])
		ys := (*[SpinorLen]complex128)(y[s*stride+base:])
		for k := range zs {
			zs[k] = minus*xs[k] + ys[k]
		}
	}
}

// fibreHop sets the fibre of site i of parity pOut in dst to the
// parity-flipping Wilson hopping term (with its -1/2) of src, the fifth
// dimension innermost so that each link is fetched once for all Ls
// slices. With g5 it is gamma_5 Hop gamma_5: the input gamma_5 flips the
// sign the projector sees, the output gamma_5 negates the lower spins
// once all eight directions have accumulated.
//
// Every accumulator starts at +0 and only ever has terms subtracted from
// it, so an output that is zero is +0 whatever the signs of the zeros
// that went in: the specialised projections may differ from the generic
// hopAccum in the sign of an intermediate zero and still reproduce its
// output bit for bit (DESIGN.md, "Kernels").
func (p *MobiusEO) fibreHop(dst, src []complex128, pOut, i int, g5 bool) {
	ls := p.M.Ls
	stride := p.HalfVol() * SpinorLen
	base := i * SpinorLen
	for s := 0; s < ls; s++ {
		*(*[SpinorLen]complex128)(dst[s*stride+base:]) = [SpinorLen]complex128{}
	}
	var hs, us halfSpinor
	hops := p.EO.Hops[pOut][2*lattice.NDim*i:][:2*lattice.NDim]
	for d, h := range hops {
		u := &p.M.W.U.U[d/2][h.Link]
		pd := d
		if g5 {
			pd ^= 1
		}
		in := src[int(h.Site)*SpinorLen:]
		for s := 0; s < ls; s++ {
			hs.project((*[SpinorLen]complex128)(in[s*stride:]), pd)
			if d&1 == 0 {
				us.mul(u, &hs)
			} else {
				us.mulAdj(u, &hs)
			}
			us.reconstruct((*[SpinorLen]complex128)(dst[s*stride+base:]), d)
		}
	}
	if g5 {
		for s := 0; s < ls; s++ {
			o := (*[SpinorLen]complex128)(dst[s*stride+base:])
			for k := 6; k < SpinorLen; k++ {
				o[k] = -o[k]
			}
		}
	}
}

// halfSpinor is a spin-projected spinor: the two colour vectors that
// survive (1 +- gamma_mu), h0 in components 0..2 and h1 in 3..5, real and
// imaginary parts apart.
type halfSpinor struct{ r, i [6]float64 }

// project sets h to the upper two spins of (1 + s*gamma_mu) v for hop
// direction d = 2*mu + b, where b = 0 (the forward hop) projects with
// s = -1 and b = 1 (the backward hop) with s = +1. In the DeGrand-Rossi
// basis every gamma_mu entry is +-1 or +-i, so the projection is an add
// or a subtract of a swapped component: no multiply, exactly the values
// the generic hopAccum forms by multiplying the phases out.
func (h *halfSpinor) project(v *[SpinorLen]complex128, d int) {
	switch d {
	case 0: // x: h0 = v0 - i v3, h1 = v1 - i v2
		for c := 0; c < 3; c++ {
			h.r[c], h.i[c] = real(v[c])+imag(v[9+c]), imag(v[c])-real(v[9+c])
			h.r[3+c], h.i[3+c] = real(v[3+c])+imag(v[6+c]), imag(v[3+c])-real(v[6+c])
		}
	case 1: // x: h0 = v0 + i v3, h1 = v1 + i v2
		for c := 0; c < 3; c++ {
			h.r[c], h.i[c] = real(v[c])-imag(v[9+c]), imag(v[c])+real(v[9+c])
			h.r[3+c], h.i[3+c] = real(v[3+c])-imag(v[6+c]), imag(v[3+c])+real(v[6+c])
		}
	case 2: // y: h0 = v0 + v3, h1 = v1 - v2
		for c := 0; c < 3; c++ {
			h.r[c], h.i[c] = real(v[c])+real(v[9+c]), imag(v[c])+imag(v[9+c])
			h.r[3+c], h.i[3+c] = real(v[3+c])-real(v[6+c]), imag(v[3+c])-imag(v[6+c])
		}
	case 3: // y: h0 = v0 - v3, h1 = v1 + v2
		for c := 0; c < 3; c++ {
			h.r[c], h.i[c] = real(v[c])-real(v[9+c]), imag(v[c])-imag(v[9+c])
			h.r[3+c], h.i[3+c] = real(v[3+c])+real(v[6+c]), imag(v[3+c])+imag(v[6+c])
		}
	case 4: // z: h0 = v0 - i v2, h1 = v1 + i v3
		for c := 0; c < 3; c++ {
			h.r[c], h.i[c] = real(v[c])+imag(v[6+c]), imag(v[c])-real(v[6+c])
			h.r[3+c], h.i[3+c] = real(v[3+c])-imag(v[9+c]), imag(v[3+c])+real(v[9+c])
		}
	case 5: // z: h0 = v0 + i v2, h1 = v1 - i v3
		for c := 0; c < 3; c++ {
			h.r[c], h.i[c] = real(v[c])-imag(v[6+c]), imag(v[c])+real(v[6+c])
			h.r[3+c], h.i[3+c] = real(v[3+c])+imag(v[9+c]), imag(v[3+c])-real(v[9+c])
		}
	case 6: // t: h0 = v0 - v2, h1 = v1 - v3
		for c := 0; c < 3; c++ {
			h.r[c], h.i[c] = real(v[c])-real(v[6+c]), imag(v[c])-imag(v[6+c])
			h.r[3+c], h.i[3+c] = real(v[3+c])-real(v[9+c]), imag(v[3+c])-imag(v[9+c])
		}
	case 7: // t: h0 = v0 + v2, h1 = v1 + v3
		for c := 0; c < 3; c++ {
			h.r[c], h.i[c] = real(v[c])+real(v[6+c]), imag(v[c])+imag(v[6+c])
			h.r[3+c], h.i[3+c] = real(v[3+c])+real(v[9+c]), imag(v[3+c])+imag(v[9+c])
		}
	}
}

// halves returns h0/2 and h1/2 for colour c, real and imaginary parts.
func (h *halfSpinor) halves(c int) (a0, b0, a1, b1 float64) {
	return 0.5 * h.r[c], 0.5 * h.i[c], 0.5 * h.r[3+c], 0.5 * h.i[3+c]
}

// reconstruct accumulates -1/2 (1 + s*gamma_mu) applied to the
// transported half spinor into o, for hop direction d as in project: the
// upper spins take -h/2, the lower spins that times s*conj(phase), which
// again is a signed swap.
func (h *halfSpinor) reconstruct(o *[SpinorLen]complex128, d int) {
	switch d {
	case 0: // x: o3 -= i h0/2, o2 -= i h1/2
		for c := 0; c < 3; c++ {
			a0, b0, a1, b1 := h.halves(c)
			o[c] -= complex(a0, b0)
			o[3+c] -= complex(a1, b1)
			o[9+c] += complex(b0, -a0)
			o[6+c] += complex(b1, -a1)
		}
	case 1: // x: o3 += i h0/2, o2 += i h1/2
		for c := 0; c < 3; c++ {
			a0, b0, a1, b1 := h.halves(c)
			o[c] -= complex(a0, b0)
			o[3+c] -= complex(a1, b1)
			o[9+c] -= complex(b0, -a0)
			o[6+c] -= complex(b1, -a1)
		}
	case 2: // y: o3 -= h0/2, o2 += h1/2
		for c := 0; c < 3; c++ {
			a0, b0, a1, b1 := h.halves(c)
			o[c] -= complex(a0, b0)
			o[3+c] -= complex(a1, b1)
			o[9+c] -= complex(a0, b0)
			o[6+c] += complex(a1, b1)
		}
	case 3: // y: o3 += h0/2, o2 -= h1/2
		for c := 0; c < 3; c++ {
			a0, b0, a1, b1 := h.halves(c)
			o[c] -= complex(a0, b0)
			o[3+c] -= complex(a1, b1)
			o[9+c] += complex(a0, b0)
			o[6+c] -= complex(a1, b1)
		}
	case 4: // z: o2 -= i h0/2, o3 += i h1/2
		for c := 0; c < 3; c++ {
			a0, b0, a1, b1 := h.halves(c)
			o[c] -= complex(a0, b0)
			o[3+c] -= complex(a1, b1)
			o[6+c] += complex(b0, -a0)
			o[9+c] -= complex(b1, -a1)
		}
	case 5: // z: o2 += i h0/2, o3 -= i h1/2
		for c := 0; c < 3; c++ {
			a0, b0, a1, b1 := h.halves(c)
			o[c] -= complex(a0, b0)
			o[3+c] -= complex(a1, b1)
			o[6+c] -= complex(b0, -a0)
			o[9+c] += complex(b1, -a1)
		}
	case 6: // t: o2 += h0/2, o3 += h1/2
		for c := 0; c < 3; c++ {
			a0, b0, a1, b1 := h.halves(c)
			o[c] -= complex(a0, b0)
			o[3+c] -= complex(a1, b1)
			o[6+c] += complex(a0, b0)
			o[9+c] += complex(a1, b1)
		}
	case 7: // t: o2 -= h0/2, o3 -= h1/2
		for c := 0; c < 3; c++ {
			a0, b0, a1, b1 := h.halves(c)
			o[c] -= complex(a0, b0)
			o[3+c] -= complex(a1, b1)
			o[6+c] -= complex(a0, b0)
			o[9+c] -= complex(a1, b1)
		}
	}
}

// mul sets w = u h for both colour vectors of h, each row summed left to
// right as SU3.MulVec does.
func (w *halfSpinor) mul(u *linalg.SU3, h *halfSpinor) {
	for a := 0; a < 3; a++ {
		m0r, m0i := real(u[a][0]), imag(u[a][0])
		m1r, m1i := real(u[a][1]), imag(u[a][1])
		m2r, m2i := real(u[a][2]), imag(u[a][2])
		w.r[a] = (m0r*h.r[0] - m0i*h.i[0]) + (m1r*h.r[1] - m1i*h.i[1]) + (m2r*h.r[2] - m2i*h.i[2])
		w.i[a] = (m0r*h.i[0] + m0i*h.r[0]) + (m1r*h.i[1] + m1i*h.r[1]) + (m2r*h.i[2] + m2i*h.r[2])
		w.r[3+a] = (m0r*h.r[3] - m0i*h.i[3]) + (m1r*h.r[4] - m1i*h.i[4]) + (m2r*h.r[5] - m2i*h.i[5])
		w.i[3+a] = (m0r*h.i[3] + m0i*h.r[3]) + (m1r*h.i[4] + m1i*h.r[4]) + (m2r*h.i[5] + m2i*h.r[5])
	}
}

// mulAdj sets w = u^dagger h. Conjugating an entry and then subtracting
// its imaginary product is adding it, to the bit, so the adjoint costs a
// transposed read and no negation.
func (w *halfSpinor) mulAdj(u *linalg.SU3, h *halfSpinor) {
	for a := 0; a < 3; a++ {
		m0r, m0i := real(u[0][a]), imag(u[0][a])
		m1r, m1i := real(u[1][a]), imag(u[1][a])
		m2r, m2i := real(u[2][a]), imag(u[2][a])
		w.r[a] = (m0r*h.r[0] + m0i*h.i[0]) + (m1r*h.r[1] + m1i*h.i[1]) + (m2r*h.r[2] + m2i*h.i[2])
		w.i[a] = (m0r*h.i[0] - m0i*h.r[0]) + (m1r*h.i[1] - m1i*h.r[1]) + (m2r*h.i[2] - m2i*h.r[2])
		w.r[3+a] = (m0r*h.r[3] + m0i*h.i[3]) + (m1r*h.r[4] + m1i*h.i[4]) + (m2r*h.r[5] + m2i*h.i[5])
		w.i[3+a] = (m0r*h.i[3] - m0i*h.r[3]) + (m1r*h.i[4] - m1i*h.r[4]) + (m2r*h.i[5] - m2i*h.r[5])
	}
}

// Apply computes dst = Dhat src on an even half field (the solver-facing
// operator application).
func (p *MobiusEO) Apply(dst, src []complex128) {
	if len(dst) != p.HalfSize() || len(src) != p.HalfSize() {
		panic("dirac: MobiusEO.Apply size mismatch")
	}
	p.run(stageB, nil, src)
	p.run(stageInner, nil, nil)
	p.run(stageOuter, dst, src)
}

// ApplyDagger computes dst = Dhat^dagger src using
// K^dag = B^dag o (gamma_5 Hop gamma_5) and A^{-dag} = transposed M5inv.
func (p *MobiusEO) ApplyDagger(dst, src []complex128) {
	if len(dst) != p.HalfSize() || len(src) != p.HalfSize() {
		panic("dirac: MobiusEO.ApplyDagger size mismatch")
	}
	p.run(stageInnerDag, nil, src)
	p.run(stageOuterDag, dst, src)
}

// ApplyNormal computes dst = Dhat^dagger Dhat src, the operator of the
// conjugate-gradient normal equations. tmp must be a caller-provided
// half-field buffer distinct from dst and src.
func (p *MobiusEO) ApplyNormal(dst, src, tmp []complex128) {
	p.Apply(tmp, src)
	p.ApplyDagger(dst, tmp)
}

// GatherParity5D splits a full lexicographic 5-D field into a half field
// of the requested parity, slice by slice.
func (p *MobiusEO) GatherParity5D(parity int, full []complex128, half []complex128) {
	if len(full) != p.M.Size() || len(half) != p.HalfSize() {
		panic("dirac: GatherParity5D size mismatch")
	}
	v4 := p.M.W.G.Vol * SpinorLen
	h4 := p.HalfVol() * SpinorLen
	for s := 0; s < p.M.Ls; s++ {
		p.EO.GatherParity(parity, full[s*v4:(s+1)*v4], SpinorLen, half[s*h4:(s+1)*h4])
	}
}

// ScatterParity5D writes a half field back into a full lexicographic 5-D
// field, slice by slice.
func (p *MobiusEO) ScatterParity5D(parity int, half []complex128, full []complex128) {
	if len(full) != p.M.Size() || len(half) != p.HalfSize() {
		panic("dirac: ScatterParity5D size mismatch")
	}
	v4 := p.M.W.G.Vol * SpinorLen
	h4 := p.HalfVol() * SpinorLen
	for s := 0; s < p.M.Ls; s++ {
		p.EO.ScatterParity(parity, half[s*h4:(s+1)*h4], SpinorLen, full[s*v4:(s+1)*v4])
	}
}

// PrepareSource reduces the full system D psi = eta to the even Schur
// system Dhat psi_e = bhat, returning bhat and the saved odd source
// needed by Reconstruct. Derivation: psi_o = A^{-1}(eta_o - K_oe psi_e),
// so bhat = eta_e - K_eo A^{-1} eta_o.
func (p *MobiusEO) PrepareSource(eta []complex128) (bhat, etaOdd []complex128) {
	bhat = make([]complex128, p.HalfSize())
	etaOdd = make([]complex128, p.HalfSize())
	p.GatherParity5D(0, eta, bhat)   // bhat = eta_e
	p.GatherParity5D(1, eta, etaOdd) // saved for reconstruction
	p.run(stageFibre, nil, etaOdd)   // t2 = B A^{-1} eta_o
	p.run(stagePrepare, bhat, nil)   // bhat -= Hop_eo t2
	return bhat, etaOdd
}

// Reconstruct rebuilds the full-lattice solution from the even solution
// and the saved odd source: psi_o = A^{-1}(eta_o - K_oe psi_e).
func (p *MobiusEO) Reconstruct(psiEven, etaOdd []complex128) []complex128 {
	p.run(stageB, nil, psiEven)    // t1 = B psi_e
	p.run(stageRecon, nil, etaOdd) // t2 = psi_o
	full := make([]complex128, p.M.Size())
	p.ScatterParity5D(0, psiEven, full)
	p.ScatterParity5D(1, p.t2, full)
	return full
}

// FlopsPerApply returns the flop count of one Schur-operator application
// in the paper's accounting: two Wilson hopping applications over Ls
// slices plus the fifth-dimension B, A and M5inv arithmetic.
func (p *MobiusEO) FlopsPerApply() int64 {
	hv := int64(p.HalfVol())
	ls := int64(p.M.Ls)
	hop := 2 * hv * ls * WilsonFlopsPerSite
	bAndA := 3 * hv * ls * SpinorLen * 8 // three elementwise chi+axpy passes
	m5inv := hv * ls * ls * SpinorLen * 8
	return hop + bAndA + m5inv
}

// PaperFlopsPerSite5D returns the per-5-D-site flop count of one normal
// equation CG iteration (two Schur applications plus BLAS-1), which lands
// in the paper's quoted 10,000-12,000 range for production Ls.
func (p *MobiusEO) PaperFlopsPerSite5D() float64 {
	perApply := float64(p.FlopsPerApply()) / float64(p.HalfVol()*p.M.Ls)
	blas := 100.0 // paper: 50-100 flops/site of BLAS-1 per iteration
	return 2*perApply + blas
}
