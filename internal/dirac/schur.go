package dirac

import (
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// schurOp is what a Schur operator is, in one precision: the geometry, the
// stencil table, the gauge links in lanes and the fifth-dimension
// constants. It is read-only once built and copied by value into every
// view of the operator.
type schurOp[F float32 | float64] struct {
	ls, halfVol int
	hops        *[2][]lattice.Hop
	u           [lattice.NDim][]link[F]

	// A = a + c*chi, B = b5 + c5*chi, m the quark mass in chi's wrap.
	a, c, b5, c5, m F
	// minvP / minvM are the Ls x Ls inverses of A restricted to the P+
	// (spins 0,1) and P- (spins 2,3) chirality sectors; minvM is the
	// transpose of minvP because the sectors are transposes of each other.
	minvP, minvM []F
}

// schur is the fused even-odd Schur kernel, the one source MobiusEO and
// MobiusEO32 instantiate: an operator and one applier's own state on it.
// Fields are half-volume, layout (s*halfVol + i)*SpinorLen + comp.
type schur[F float32 | float64] struct {
	schurOp[F]

	// Scratch half-fields.
	t1, t2, t3 []cx[F]

	// The pass in flight: which site loop, on what. sites is runSites bound
	// once, so that handing it to linalg.For builds no closure per
	// application. A method value captures its receiver: own must run on
	// the kernel at its final address, and again on every copy.
	stage    schurStage
	dst, src []cx[F]
	sites    func(lo, hi int)
}

// own gives k the state no two appliers may share: the scratch half-fields
// and the bound site loop. t2 comes from the caller, who may want to read
// a pass's result from it in its own field type.
func (k *schur[F]) own(t2 []cx[F]) {
	k.t1, k.t2, k.t3 = make([]cx[F], len(t2)), t2, make([]cx[F], len(t2))
	k.sites = k.runSites
}

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

// run makes one pass over the parity block, split workers wide.
func (k *schur[F]) run(st schurStage, dst, src []cx[F], workers int) {
	k.stage, k.dst, k.src = st, dst, src
	linalg.For(k.halfVol, workers, k.sites)
	k.dst, k.src = nil, nil
}

// runSites is the body of every pass: sites [lo, hi) of the pass's parity
// block.
func (k *schur[F]) runSites(lo, hi int) {
	t1, t2, t3, dst, src := k.t1, k.t2, k.t3, k.dst, k.src
	for i := lo; i < hi; i++ {
		switch k.stage {
		case stageB:
			k.fibreBA(t1, src, i, k.b5, k.c5, false)
		case stageInner:
			k.fibreHop(t2, t1, 1, i, false)
			k.fibreAInv(t3, t2, i, false)
			k.fibreBA(t2, t3, i, k.b5, k.c5, false)
		case stageOuter:
			k.fibreHop(t3, t2, 0, i, false)
			k.fibreBA(dst, src, i, k.a, k.c, false)
			k.fibreAxpy(dst, t3, dst, i)
		case stageInnerDag:
			k.fibreHop(t2, src, 1, i, true)
			k.fibreBA(t1, t2, i, k.b5, k.c5, true)
			k.fibreAInv(t2, t1, i, true)
		case stageOuterDag:
			k.fibreHop(t3, t2, 0, i, true)
			k.fibreBA(t1, t3, i, k.b5, k.c5, true)
			k.fibreBA(dst, src, i, k.a, k.c, true)
			k.fibreAxpy(dst, t1, dst, i)
		case stageFibre:
			k.fibreAInv(t1, src, i, false)
			k.fibreBA(t2, t1, i, k.b5, k.c5, false)
		case stagePrepare:
			k.fibreHop(t3, t2, 0, i, false)
			k.fibreAxpy(dst, t3, dst, i)
		case stageRecon:
			k.fibreHop(t2, t1, 1, i, false)
			k.fibreAxpy(t3, t2, src, i)
			k.fibreAInv(t2, t3, i, false)
		}
	}
}

// spinor is one site's twelve components, spin slowest.
func spinor[F float32 | float64](f []cx[F], off int) *[SpinorLen]cx[F] {
	return (*[SpinorLen]cx[F])(f[off:])
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
// site i: B for (b5, c5), A for (a, c). The weights are real and scale the
// parts one by one, w0*x + w1*(w*chi); a product by (w, 0) as a complex
// number would differ in the sign of some zeros (DESIGN.md s19). dst must
// not alias src.
func (k *schur[F]) fibreBA(dst, src []cx[F], i int, w0, w1 F, dagger bool) {
	stride := k.halfVol * SpinorLen
	base := i * SpinorLen
	for s := 0; s < k.ls; s++ {
		sp, pw, sm, mw := chiNeighbours(s, k.ls, -k.m, dagger)
		d := spinor(dst, s*stride+base)
		x := spinor(src, s*stride+base)
		up := spinor(src, sp*stride+base)
		dn := spinor(src, sm*stride+base)
		for j := 0; j < 6; j++ {
			d[j] = x[j].scale(w0).add(up[j].scale(pw).scale(w1))
		}
		for j := 6; j < SpinorLen; j++ {
			d[j] = x[j].scale(w0).add(dn[j].scale(mw).scale(w1))
		}
	}
}

// fibreAInv sets dst = A^{-1} src (or A^{-dagger} src) on the fibre of
// site i via the dense fifth-dimension inverses, each part a sum from +0
// over the non-zero weights. dst must not alias src.
func (k *schur[F]) fibreAInv(dst, src []cx[F], i int, dagger bool) {
	mP, mM := k.minvP, k.minvM
	if dagger {
		mP, mM = mM, mP
	}
	ls := k.ls
	stride := k.halfVol * SpinorLen
	base := i * SpinorLen
	for sOut := 0; sOut < ls; sOut++ {
		var acc [SpinorLen]cx[F]
		for sIn := 0; sIn < ls; sIn++ {
			v := spinor(src, sIn*stride+base)
			if w := mP[sOut*ls+sIn]; w != 0 {
				for j := 0; j < 6; j++ {
					acc[j] = acc[j].add(v[j].scale(w))
				}
			}
			if w := mM[sOut*ls+sIn]; w != 0 {
				for j := 6; j < SpinorLen; j++ {
					acc[j] = acc[j].add(v[j].scale(w))
				}
			}
		}
		*spinor(dst, sOut*stride+base) = acc
	}
}

// fibreAxpy sets z = (-1)*x + y on the fibre of site i, spelled as the
// complex axpy it replaces - a full complex product by (-1, 0), whose
// 0*x terms decide the sign of a zero - so that signed zeros come out the
// same. z may alias y.
func (k *schur[F]) fibreAxpy(z, x, y []cx[F], i int) {
	minus := cx[F]{-1, 0}
	stride := k.halfVol * SpinorLen
	base := i * SpinorLen
	for s := 0; s < k.ls; s++ {
		zs := spinor(z, s*stride+base)
		xs := spinor(x, s*stride+base)
		ys := spinor(y, s*stride+base)
		for j := range zs {
			zs[j] = minus.times(xs[j]).add(ys[j])
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
// hop in the sign of an intermediate zero and still reproduce its output
// bit for bit (DESIGN.md, "Kernels").
func (k *schur[F]) fibreHop(dst, src []cx[F], pOut, i int, g5 bool) {
	ls := k.ls
	stride := k.halfVol * SpinorLen
	base := i * SpinorLen
	for s := 0; s < ls; s++ {
		*spinor(dst, s*stride+base) = [SpinorLen]cx[F]{}
	}
	var hs, us halfSpinor[F]
	hops := k.hops[pOut][2*lattice.NDim*i:][:2*lattice.NDim]
	for d, h := range hops {
		u := &k.u[d/2][h.Link]
		pd := d
		if g5 {
			pd ^= 1
		}
		in := src[int(h.Site)*SpinorLen:]
		for s := 0; s < ls; s++ {
			hs.project(spinor(in, s*stride), pd)
			if d&1 == 0 {
				us.mul(u, &hs)
			} else {
				us.mulAdj(u, &hs)
			}
			us.reconstruct(spinor(dst, s*stride+base), d)
		}
	}
	if g5 {
		for s := 0; s < ls; s++ {
			o := spinor(dst, s*stride+base)
			for j := 6; j < SpinorLen; j++ {
				o[j] = cx[F]{-o[j].re, -o[j].im}
			}
		}
	}
}

// The arithmetic of a hop, one complex number at a time. Each is small
// enough to inline, so a body built of them on constant indices compiles
// to straight-line loads off one base register (DESIGN.md s19).

func (a cx[F]) add(b cx[F]) cx[F] { return cx[F]{a.re + b.re, a.im + b.im} }
func (a cx[F]) sub(b cx[F]) cx[F] { return cx[F]{a.re - b.re, a.im - b.im} }

// addI returns a + i*b, subI a - i*b: a swap of b's parts and a sign.
func (a cx[F]) addI(b cx[F]) cx[F] { return cx[F]{a.re - b.im, a.im + b.re} }
func (a cx[F]) subI(b cx[F]) cx[F] { return cx[F]{a.re + b.im, a.im - b.re} }

// times returns a*b. conjTimes returns conj(a)*b: conjugating an entry and
// then subtracting its imaginary product is adding it, to the bit, so the
// adjoint costs no negation.
func (a cx[F]) times(b cx[F]) cx[F]     { return cx[F]{a.re*b.re - a.im*b.im, a.re*b.im + a.im*b.re} }
func (a cx[F]) conjTimes(b cx[F]) cx[F] { return cx[F]{a.re*b.re + a.im*b.im, a.re*b.im - a.im*b.re} }

// scale returns w*a for a real weight: no complex multiply.
func (a cx[F]) scale(w F) cx[F] { return cx[F]{w * a.re, w * a.im} }

// halfSpinor is a spin-projected spinor: the two colour vectors that
// survive (1 +- gamma_mu), h0 in components 0..2 and h1 in 3..5.
type halfSpinor[F float32 | float64] [6]cx[F]

// project sets h to the upper two spins of (1 + s*gamma_mu) v for hop
// direction d = 2*mu + b, where b = 0 (the forward hop) projects with
// s = -1 and b = 1 (the backward hop) with s = +1. In the DeGrand-Rossi
// basis every gamma_mu entry is +-1 or +-i, so the projection is an add
// or a subtract of a swapped component: no multiply, exactly the values
// the generic hop forms by multiplying the phases out. The colours
// are written out because a loop over them costs a tenth of the float32
// kernel (DESIGN.md s19).
func (h *halfSpinor[F]) project(v *[SpinorLen]cx[F], d int) {
	switch d {
	case 0: // x: h0 = v0 - i v3, h1 = v1 - i v2
		h[0], h[1], h[2] = v[0].subI(v[9]), v[1].subI(v[10]), v[2].subI(v[11])
		h[3], h[4], h[5] = v[3].subI(v[6]), v[4].subI(v[7]), v[5].subI(v[8])
	case 1: // x: h0 = v0 + i v3, h1 = v1 + i v2
		h[0], h[1], h[2] = v[0].addI(v[9]), v[1].addI(v[10]), v[2].addI(v[11])
		h[3], h[4], h[5] = v[3].addI(v[6]), v[4].addI(v[7]), v[5].addI(v[8])
	case 2: // y: h0 = v0 + v3, h1 = v1 - v2
		h[0], h[1], h[2] = v[0].add(v[9]), v[1].add(v[10]), v[2].add(v[11])
		h[3], h[4], h[5] = v[3].sub(v[6]), v[4].sub(v[7]), v[5].sub(v[8])
	case 3: // y: h0 = v0 - v3, h1 = v1 + v2
		h[0], h[1], h[2] = v[0].sub(v[9]), v[1].sub(v[10]), v[2].sub(v[11])
		h[3], h[4], h[5] = v[3].add(v[6]), v[4].add(v[7]), v[5].add(v[8])
	case 4: // z: h0 = v0 - i v2, h1 = v1 + i v3
		h[0], h[1], h[2] = v[0].subI(v[6]), v[1].subI(v[7]), v[2].subI(v[8])
		h[3], h[4], h[5] = v[3].addI(v[9]), v[4].addI(v[10]), v[5].addI(v[11])
	case 5: // z: h0 = v0 + i v2, h1 = v1 - i v3
		h[0], h[1], h[2] = v[0].addI(v[6]), v[1].addI(v[7]), v[2].addI(v[8])
		h[3], h[4], h[5] = v[3].subI(v[9]), v[4].subI(v[10]), v[5].subI(v[11])
	case 6: // t: h0 = v0 - v2, h1 = v1 - v3
		h[0], h[1], h[2] = v[0].sub(v[6]), v[1].sub(v[7]), v[2].sub(v[8])
		h[3], h[4], h[5] = v[3].sub(v[9]), v[4].sub(v[10]), v[5].sub(v[11])
	case 7: // t: h0 = v0 + v2, h1 = v1 + v3
		h[0], h[1], h[2] = v[0].add(v[6]), v[1].add(v[7]), v[2].add(v[8])
		h[3], h[4], h[5] = v[3].add(v[9]), v[4].add(v[10]), v[5].add(v[11])
	}
}

// reconstruct accumulates -(1 + s*gamma_mu) applied to the transported
// half spinor into o, for hop direction d as in project; h arrives halved
// (mul, mulAdj), which is the hopping term's 1/2. The upper spins take -h
// whatever the direction, the lower spins that times s*conj(phase), which
// again is a signed swap.
func (h *halfSpinor[F]) reconstruct(o *[SpinorLen]cx[F], d int) {
	o[0], o[1], o[2] = o[0].sub(h[0]), o[1].sub(h[1]), o[2].sub(h[2])
	o[3], o[4], o[5] = o[3].sub(h[3]), o[4].sub(h[4]), o[5].sub(h[5])
	switch d {
	case 0: // x: o3 -= i h0, o2 -= i h1
		o[9], o[10], o[11] = o[9].subI(h[0]), o[10].subI(h[1]), o[11].subI(h[2])
		o[6], o[7], o[8] = o[6].subI(h[3]), o[7].subI(h[4]), o[8].subI(h[5])
	case 1: // x: o3 += i h0, o2 += i h1
		o[9], o[10], o[11] = o[9].addI(h[0]), o[10].addI(h[1]), o[11].addI(h[2])
		o[6], o[7], o[8] = o[6].addI(h[3]), o[7].addI(h[4]), o[8].addI(h[5])
	case 2: // y: o3 -= h0, o2 += h1
		o[9], o[10], o[11] = o[9].sub(h[0]), o[10].sub(h[1]), o[11].sub(h[2])
		o[6], o[7], o[8] = o[6].add(h[3]), o[7].add(h[4]), o[8].add(h[5])
	case 3: // y: o3 += h0, o2 -= h1
		o[9], o[10], o[11] = o[9].add(h[0]), o[10].add(h[1]), o[11].add(h[2])
		o[6], o[7], o[8] = o[6].sub(h[3]), o[7].sub(h[4]), o[8].sub(h[5])
	case 4: // z: o2 -= i h0, o3 += i h1
		o[6], o[7], o[8] = o[6].subI(h[0]), o[7].subI(h[1]), o[8].subI(h[2])
		o[9], o[10], o[11] = o[9].addI(h[3]), o[10].addI(h[4]), o[11].addI(h[5])
	case 5: // z: o2 += i h0, o3 -= i h1
		o[6], o[7], o[8] = o[6].addI(h[0]), o[7].addI(h[1]), o[8].addI(h[2])
		o[9], o[10], o[11] = o[9].subI(h[3]), o[10].subI(h[4]), o[11].subI(h[5])
	case 6: // t: o2 += h0, o3 += h1
		o[6], o[7], o[8] = o[6].add(h[0]), o[7].add(h[1]), o[8].add(h[2])
		o[9], o[10], o[11] = o[9].add(h[3]), o[10].add(h[4]), o[11].add(h[5])
	case 7: // t: o2 -= h0, o3 -= h1
		o[6], o[7], o[8] = o[6].sub(h[0]), o[7].sub(h[1]), o[8].sub(h[2])
		o[9], o[10], o[11] = o[9].sub(h[3]), o[10].sub(h[4]), o[11].sub(h[5])
	}
}

// mul sets w = (u h)/2 for both colour vectors of h, each row summed left
// to right. The rows are written out like the colours of project, and for
// the same reason.
func (w *halfSpinor[F]) mul(u *link[F], h *halfSpinor[F]) {
	m0, m1, m2 := u[0][0], u[0][1], u[0][2]
	w[0] = m0.times(h[0]).add(m1.times(h[1])).add(m2.times(h[2])).scale(0.5)
	w[3] = m0.times(h[3]).add(m1.times(h[4])).add(m2.times(h[5])).scale(0.5)
	m0, m1, m2 = u[1][0], u[1][1], u[1][2]
	w[1] = m0.times(h[0]).add(m1.times(h[1])).add(m2.times(h[2])).scale(0.5)
	w[4] = m0.times(h[3]).add(m1.times(h[4])).add(m2.times(h[5])).scale(0.5)
	m0, m1, m2 = u[2][0], u[2][1], u[2][2]
	w[2] = m0.times(h[0]).add(m1.times(h[1])).add(m2.times(h[2])).scale(0.5)
	w[5] = m0.times(h[3]).add(m1.times(h[4])).add(m2.times(h[5])).scale(0.5)
}

// mulAdj sets w = (u^dagger h)/2: a transposed read.
func (w *halfSpinor[F]) mulAdj(u *link[F], h *halfSpinor[F]) {
	m0, m1, m2 := u[0][0], u[1][0], u[2][0]
	w[0] = m0.conjTimes(h[0]).add(m1.conjTimes(h[1])).add(m2.conjTimes(h[2])).scale(0.5)
	w[3] = m0.conjTimes(h[3]).add(m1.conjTimes(h[4])).add(m2.conjTimes(h[5])).scale(0.5)
	m0, m1, m2 = u[0][1], u[1][1], u[2][1]
	w[1] = m0.conjTimes(h[0]).add(m1.conjTimes(h[1])).add(m2.conjTimes(h[2])).scale(0.5)
	w[4] = m0.conjTimes(h[3]).add(m1.conjTimes(h[4])).add(m2.conjTimes(h[5])).scale(0.5)
	m0, m1, m2 = u[0][2], u[1][2], u[2][2]
	w[2] = m0.conjTimes(h[0]).add(m1.conjTimes(h[1])).add(m2.conjTimes(h[2])).scale(0.5)
	w[5] = m0.conjTimes(h[3]).add(m1.conjTimes(h[4])).add(m2.conjTimes(h[5])).scale(0.5)
}
