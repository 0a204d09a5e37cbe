package dirac

import (
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// MobiusEO32 is the single-precision mirror of MobiusEO, the compute stage
// of the paper's "double-half" mixed-precision solver: the gauge field and
// all spinor arithmetic are float32, while the solver layered on top keeps
// its reductions and reliable updates in double precision and can
// additionally round the streamed operands through the 16-bit fixed-point
// storage format. The kernels are the fused site loops described at
// MobiusEO, with every scalar multiply written in float32 components
// because the Go compiler lowers complex64 multiplication through
// complex128.
type MobiusEO32 struct {
	P *MobiusEO // parent: geometry, EO tables, fifth-dimension inverses
	U *GaugeC64

	a, c, b5, c5, m float32
	minvP, minvM    []float32

	// Workers is MobiusEO.Workers for this operator's site loops. As
	// there, what is above it is shared by every View and what is below is
	// one applier's own.
	Workers int

	t1, t2, t3 []complex64

	// The pass in flight: which site loop, on what. sites is bound once at
	// construction so that handing it to linalg.ForBlocked builds no
	// closure per application.
	stage    schurStage
	dst, src []complex64
	sites    func(lo, hi int)
}

// NewMobiusEO32 demotes a preconditioned operator to single precision.
func NewMobiusEO32(p *MobiusEO) *MobiusEO32 {
	ls := p.M.Ls
	q := &MobiusEO32{
		P:     p,
		U:     DemoteGauge(p.M.W.U),
		a:     float32(p.a),
		c:     float32(p.c),
		b5:    float32(p.M.B5),
		c5:    float32(p.M.C5),
		m:     float32(p.M.M),
		minvP: make([]float32, ls*ls),
		minvM: make([]float32, ls*ls),
	}
	for i, v := range p.minvP {
		q.minvP[i] = float32(v)
	}
	for i, v := range p.minvM {
		q.minvM[i] = float32(v)
	}
	q.ownScratch()
	return q
}

func (q *MobiusEO32) ownScratch() {
	n := q.P.HalfSize()
	q.t1 = make([]complex64, n)
	q.t2 = make([]complex64, n)
	q.t3 = make([]complex64, n)
	q.sites = q.runSites
}

// View is MobiusEO.View for the single-precision mirror: the demoted
// gauge field and the float32 constants by reference, scratch and pass
// state of its own. P stays the operator q was demoted from, which a
// MobiusEO32 consults for geometry alone.
func (q *MobiusEO32) View() *MobiusEO32 {
	v := &MobiusEO32{P: q.P, U: q.U, a: q.a, c: q.c, b5: q.b5, c5: q.c5, m: q.m, minvP: q.minvP, minvM: q.minvM}
	v.ownScratch()
	return v
}

// Size returns the half-field component count.
func (q *MobiusEO32) Size() int { return q.P.HalfSize() }

// Apply computes dst = Dhat src in single precision.
func (q *MobiusEO32) Apply(dst, src []complex64) {
	if len(dst) != q.Size() || len(src) != q.Size() {
		panic("dirac: MobiusEO32.Apply size mismatch")
	}
	q.run(stageB, nil, src)
	q.run(stageInner, nil, nil)
	q.run(stageOuter, dst, src)
}

// ApplyDagger computes dst = Dhat^dagger src in single precision.
func (q *MobiusEO32) ApplyDagger(dst, src []complex64) {
	if len(dst) != q.Size() || len(src) != q.Size() {
		panic("dirac: MobiusEO32.ApplyDagger size mismatch")
	}
	q.run(stageInnerDag, nil, src)
	q.run(stageOuterDag, dst, src)
}

// ApplyNormal computes dst = Dhat^dag Dhat src in single precision; tmp
// must be caller-provided and distinct from dst and src.
func (q *MobiusEO32) ApplyNormal(dst, src, tmp []complex64) {
	q.Apply(tmp, src)
	q.ApplyDagger(dst, tmp)
}

func (q *MobiusEO32) run(st schurStage, dst, src []complex64) {
	q.stage, q.dst, q.src = st, dst, src
	w := q.P.M.W
	linalg.ForBlocked(q.P.HalfVol(), ownWidth(q.Workers, w.Workers), w.Block, q.sites)
	q.dst, q.src = nil, nil
}

// runSites is the body of every pass: sites [lo, hi) of the pass's parity
// block, each carried through all of its stages while its fibre is hot.
// See MobiusEO.runSites for the data flow; the two are the same loops.
func (q *MobiusEO32) runSites(lo, hi int) {
	t1, t2, t3, dst, src := q.t1, q.t2, q.t3, q.dst, q.src
	for i := lo; i < hi; i++ {
		switch q.stage {
		case stageB:
			q.fibreBA(t1, src, i, q.b5, q.c5, false)
		case stageInner:
			q.fibreHop(t2, t1, 1, i, false)
			q.fibreAInv(t3, t2, i, false)
			q.fibreBA(t2, t3, i, q.b5, q.c5, false)
		case stageOuter:
			q.fibreHop(t3, t2, 0, i, false)
			q.fibreBA(dst, src, i, q.a, q.c, false)
			q.fibreSub(dst, t3, i)
		case stageInnerDag:
			q.fibreHop(t2, src, 1, i, true)
			q.fibreBA(t1, t2, i, q.b5, q.c5, true)
			q.fibreAInv(t2, t1, i, true)
		case stageOuterDag:
			q.fibreHop(t3, t2, 0, i, true)
			q.fibreBA(t1, t3, i, q.b5, q.c5, true)
			q.fibreBA(dst, src, i, q.a, q.c, true)
			q.fibreSub(dst, t1, i)
		}
	}
}

// fibreBA sets dst = (w0 + w1*chi) src, or its dagger, on the fibre of
// site i: B for (b5, c5), A for (a, c). dst must not alias src.
func (q *MobiusEO32) fibreBA(dst, src []complex64, i int, w0, w1 float32, dagger bool) {
	ls := q.P.M.Ls
	stride := q.P.HalfVol() * SpinorLen
	base := i * SpinorLen
	for s := 0; s < ls; s++ {
		sp, pw, sm, mw := chiNeighbours(s, ls, -q.m, dagger)
		d := (*[SpinorLen]complex64)(dst[s*stride+base:])
		x := (*[SpinorLen]complex64)(src[s*stride+base:])
		up := (*[SpinorLen]complex64)(src[sp*stride+base:])
		dn := (*[SpinorLen]complex64)(src[sm*stride+base:])
		for k := 0; k < 6; k++ {
			d[k] = complex(w0*real(x[k])+w1*(pw*real(up[k])), w0*imag(x[k])+w1*(pw*imag(up[k])))
		}
		for k := 6; k < SpinorLen; k++ {
			d[k] = complex(w0*real(x[k])+w1*(mw*real(dn[k])), w0*imag(x[k])+w1*(mw*imag(dn[k])))
		}
	}
}

// fibreAInv sets dst = A^{-1} src (or A^{-dagger} src) on the fibre of
// site i via the dense fifth-dimension inverses. dst must not alias src.
func (q *MobiusEO32) fibreAInv(dst, src []complex64, i int, dagger bool) {
	mP, mM := q.minvP, q.minvM
	if dagger {
		mP, mM = q.minvM, q.minvP
	}
	ls := q.P.M.Ls
	stride := q.P.HalfVol() * SpinorLen
	base := i * SpinorLen
	for sOut := 0; sOut < ls; sOut++ {
		var accR, accI [SpinorLen]float32
		for sIn := 0; sIn < ls; sIn++ {
			v := (*[SpinorLen]complex64)(src[sIn*stride+base:])
			if w := mP[sOut*ls+sIn]; w != 0 {
				for k := 0; k < 6; k++ {
					accR[k] += w * real(v[k])
					accI[k] += w * imag(v[k])
				}
			}
			if w := mM[sOut*ls+sIn]; w != 0 {
				for k := 6; k < SpinorLen; k++ {
					accR[k] += w * real(v[k])
					accI[k] += w * imag(v[k])
				}
			}
		}
		d := (*[SpinorLen]complex64)(dst[sOut*stride+base:])
		for k := range d {
			d[k] = complex(accR[k], accI[k])
		}
	}
}

// fibreSub sets dst += (-1) * x on the fibre of site i, spelled as the
// complex axpy it replaces so that signed zeros come out the same.
func (q *MobiusEO32) fibreSub(dst, x []complex64, i int) {
	const ar, ai = float32(-1), float32(0)
	ls := q.P.M.Ls
	stride := q.P.HalfVol() * SpinorLen
	base := i * SpinorLen
	for s := 0; s < ls; s++ {
		d := (*[SpinorLen]complex64)(dst[s*stride+base:])
		v := (*[SpinorLen]complex64)(x[s*stride+base:])
		for k := range d {
			xr, xi := real(v[k]), imag(v[k])
			d[k] += complex(ar*xr-ai*xi, ar*xi+ai*xr)
		}
	}
}

// fibreHop sets the fibre of site i of parity pOut in dst to the
// parity-flipping hopping term (with its -1/2) of src. With g5 it is
// gamma_5 Hop gamma_5: the input gamma_5 flips the sign the projector
// sees, the output gamma_5 negates the lower spins once all eight
// directions have accumulated.
func (q *MobiusEO32) fibreHop(dst, src []complex64, pOut, i int, g5 bool) {
	ls := q.P.M.Ls
	stride := q.P.HalfVol() * SpinorLen
	base := i * SpinorLen
	for s := 0; s < ls; s++ {
		*(*[SpinorLen]complex64)(dst[s*stride+base:]) = [SpinorLen]complex64{}
	}
	var hs, us halfSpinor32
	hops := q.P.EO.Hops[pOut][2*lattice.NDim*i:][:2*lattice.NDim]
	for d, h := range hops {
		u := &q.U.U[d/2][h.Link]
		pd := d
		if g5 {
			pd ^= 1
		}
		in := src[int(h.Site)*SpinorLen:]
		for s := 0; s < ls; s++ {
			hs.project((*[SpinorLen]complex64)(in[s*stride:]), pd)
			if d&1 == 0 {
				u.mulHalf(&us, &hs)
			} else {
				u.mulAdjHalf(&us, &hs)
			}
			us.reconstruct((*[SpinorLen]complex64)(dst[s*stride+base:]), d)
		}
	}
	if g5 {
		for s := 0; s < ls; s++ {
			o := (*[SpinorLen]complex64)(dst[s*stride+base:])
			for k := 6; k < SpinorLen; k++ {
				o[k] = -o[k]
			}
		}
	}
}

// halfSpinor32 is a spin-projected spinor: the two colour vectors that
// survive (1 +- gamma_mu), h0 in components 0..2 and h1 in 3..5, real and
// imaginary parts apart.
type halfSpinor32 struct{ r, i [6]float32 }

// project sets h to the upper two spins of (1 + s*gamma_mu) v for hop
// direction d = 2*mu + b, where b = 0 (the forward hop) projects with
// s = -1 and b = 1 (the backward hop) with s = +1. In the DeGrand-Rossi
// basis every gamma_mu entry is +-1 or +-i, so the projection is an add
// or a subtract of a swapped component: no multiply, exactly the values
// the generic hopAccum32 forms by multiplying the phases out.
func (h *halfSpinor32) project(v *[SpinorLen]complex64, d int) {
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
func (h *halfSpinor32) halves(c int) (a0, b0, a1, b1 float32) {
	return 0.5 * h.r[c], 0.5 * h.i[c], 0.5 * h.r[3+c], 0.5 * h.i[3+c]
}

// reconstruct accumulates -1/2 (1 + s*gamma_mu) applied to the
// transported half spinor into o, for hop direction d as in project: the
// upper spins take -h/2, the lower spins that times s*conj(phase), which
// again is a signed swap.
func (h *halfSpinor32) reconstruct(o *[SpinorLen]complex64, d int) {
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

// mulHalf sets w = u h for both colour vectors of h, each row summed left
// to right as hopAccum32 does.
func (u *SU3C64) mulHalf(w, h *halfSpinor32) {
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

// mulAdjHalf sets w = u^dagger h. Conjugating an entry and then
// subtracting its imaginary product is adding it, to the bit, so the
// adjoint costs a transposed read and no negation.
func (u *SU3C64) mulAdjHalf(w, h *halfSpinor32) {
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
