package dirac

import "femtoverse/internal/lattice"

// scalarSchur is the Schur kernel as it stood before the lane-major
// layout: the fibre of a site read and written in the caller's layout,
// (s*halfVol + i)*SpinorLen + comp, and the hop a halfSpinor at a time,
// one slice after another. It survives here as the reference the vector
// kernel is timed against (BenchmarkSchurNormalPaired) and, through the
// staged reference it reproduced, held to bit for bit. Only the passes of
// Apply and ApplyDagger are kept.
type scalarSchur[F float32 | float64] struct {
	schurOp[F]
	t1, t2, t3 []cx[F]
}

// newScalarSchur is a scalar applier of op with scratch of its own.
func newScalarSchur[F float32 | float64](op schurOp[F]) *scalarSchur[F] {
	n := op.ls * op.halfVol * SpinorLen
	return &scalarSchur[F]{schurOp: op, t1: make([]cx[F], n), t2: make([]cx[F], n), t3: make([]cx[F], n)}
}

// apply is dst = Dhat src, applyDagger dst = Dhat^dagger src, and
// applyNormal dst = Dhat^dagger Dhat src through tmp, the passes that
// Apply, ApplyDagger and ApplyNormal made.
func (k *scalarSchur[F]) apply(dst, src []cx[F]) {
	k.run(stageB, nil, src)
	k.run(stageInner, nil, nil)
	k.run(stageOuter, dst, src)
}

func (k *scalarSchur[F]) applyDagger(dst, src []cx[F]) {
	k.run(stageInnerDag, nil, src)
	k.run(stageOuterDag, dst, src)
}

func (k *scalarSchur[F]) applyNormal(dst, src, tmp []cx[F]) {
	k.apply(tmp, src)
	k.applyDagger(dst, tmp)
}

func (k *scalarSchur[F]) run(st schurStage, dst, src []cx[F]) {
	t1, t2, t3 := k.t1, k.t2, k.t3
	for i := 0; i < k.halfVol; i++ {
		switch st {
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
		}
	}
}

// fibreBA sets dst = (w0 + w1*chi) src, or its dagger, on the fibre of
// site i: B for (b5, c5), A for (a, c). The weights are real and scale the
// parts one by one, w0*x + w1*(w*chi); a product by (w, 0) as a complex
// number would differ in the sign of some zeros (DESIGN.md s19). dst must
// not alias src.
func (k *scalarSchur[F]) fibreBA(dst, src []cx[F], i int, w0, w1 F, dagger bool) {
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
func (k *scalarSchur[F]) fibreAInv(dst, src []cx[F], i int, dagger bool) {
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
func (k *scalarSchur[F]) fibreAxpy(z, x, y []cx[F], i int) {
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
func (k *scalarSchur[F]) fibreHop(dst, src []cx[F], pOut, i int, g5 bool) {
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
