package dirac

import (
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// SpinorLen is the number of complex components per 4-D site (Ns*Nc).
const SpinorLen = 12

// WilsonFlopsPerSite is the community-standard flop count for one Wilson
// dslash application per 4-D site (the convention the paper's FLOP
// reporting uses).
const WilsonFlopsPerSite = 1320

// Wilson is the 4-D Wilson Dirac operator D = (4 + Mass) - (1/2) * hopping.
// For the domain-wall kernel the mass is the negative domain-wall height
// -M5. Apply is safe for concurrent use; the parallelism is internal.
type Wilson struct {
	G       *lattice.Geometry
	U       *gauge.Field
	Mass    float64
	Workers int // goroutine count for the site loop; <= 0 means default
	// Block is the work-stealing block size in sites (<= 0 = static
	// chunking); with Workers it forms the autotuner's launch space.
	Block int
}

// NewWilson constructs a Wilson operator over the given gauge field.
func NewWilson(u *gauge.Field, mass float64) *Wilson {
	return &Wilson{G: u.G, U: u, Mass: mass}
}

// Size returns the number of complex components in a compatible field.
func (w *Wilson) Size() int { return w.G.Vol * SpinorLen }

// Apply computes dst = D src on a full (both-parity) 4-D field. dst must
// not alias src: the stencil reads neighbours the loop has already written,
// so dst == src panics.
func (w *Wilson) Apply(dst, src []complex128) { w.apply(dst, src, false) }

// ApplyDagger computes dst = D^dagger src using the gamma_5 hermiticity
// D^dagger = gamma_5 D gamma_5 of the Wilson operator. The two gamma_5 are
// applied site by site inside the stencil loop - to a stack copy of each
// spinor the site reads, and to the site's own result - so the call needs
// no scratch vector and the operator stays shareable. dst == src, which
// the scratch copy used to allow, panics like it does for Apply.
func (w *Wilson) ApplyDagger(dst, src []complex128) { w.apply(dst, src, true) }

func (w *Wilson) apply(dst, src []complex128, dagger bool) {
	if len(dst) != w.Size() || len(src) != w.Size() {
		panic("dirac: Wilson.Apply size mismatch")
	}
	if &dst[0] == &src[0] {
		panic("dirac: Wilson.Apply dst aliases src")
	}
	diag := complex(4+w.Mass, 0)
	g := w.G
	linalg.ForBlocked(g.Vol, w.Workers, w.Block, func(lo, hi int) {
		var in5, nb5 [SpinorLen]complex128 // gamma_5 copies, dagger only
		for s := lo; s < hi; s++ {
			out := dst[s*SpinorLen : (s+1)*SpinorLen]
			in := src[s*SpinorLen : (s+1)*SpinorLen]
			if dagger {
				gamma5Spinor(in5[:], in)
				in = in5[:]
			}
			for i := 0; i < SpinorLen; i++ {
				out[i] = diag * in[i]
			}
			for mu := 0; mu < lattice.NDim; mu++ {
				fw, bw := g.Fwd(s, mu), g.Bwd(s, mu)
				nf := src[fw*SpinorLen : (fw+1)*SpinorLen]
				nb := src[bw*SpinorLen : (bw+1)*SpinorLen]
				if dagger {
					gamma5Spinor(in5[:], nf)
					gamma5Spinor(nb5[:], nb)
					nf, nb = in5[:], nb5[:]
				}
				HopAccum(out, nf, &w.U.U[mu][s], mu, -1, false)
				HopAccum(out, nb, &w.U.U[mu][bw], mu, +1, true)
			}
			if dagger {
				gamma5Spinor(out, out)
			}
		}
	})
}

// Flops returns the flop count of one Apply in the standard convention.
func (w *Wilson) Flops() int64 { return int64(w.G.Vol) * WilsonFlopsPerSite }

// HopAccum accumulates one hopping term into out:
//
//	out += -1/2 (1 + projSign*gamma_mu) U(or U^dag) in
//
// using the spin-projection trick: (1 + s*gamma_mu) has rank two, so only
// two color-vector SU(3) multiplies are needed, with the lower spin
// components reconstructed by a phase. adjoint selects U^dag (backward
// hop). This is the QUDA matrix-free stencil in scalar form, and the one
// copy of it: the 4-D Wilson operator here and the rank-local stencil of
// package domain both call it.
func HopAccum(out, in []complex128, u *linalg.SU3, mu, projSign int, adjoint bool) {
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
	if adjoint {
		uh0 = u.AdjMulVec(&h0)
		uh1 = u.AdjMulVec(&h1)
	} else {
		uh0 = u.MulVec(&h0)
		uh1 = u.MulVec(&h1)
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

// Gamma5 computes dst = gamma_5 src on a 4-D field (diagonal in the
// DeGrand-Rossi basis: spins 0,1 keep sign, spins 2,3 flip). dst and src
// may alias.
func Gamma5(dst, src []complex128) {
	if len(dst) != len(src) || len(src)%SpinorLen != 0 {
		panic("dirac: Gamma5 size mismatch")
	}
	linalg.For(len(src)/SpinorLen, 0, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			gamma5Spinor(dst[s*SpinorLen:(s+1)*SpinorLen], src[s*SpinorLen:(s+1)*SpinorLen])
		}
	})
}

// gamma5Spinor is Gamma5 on one site's twelve components.
func gamma5Spinor(dst, src []complex128) {
	for i := 0; i < 6; i++ {
		dst[i] = src[i]
	}
	for i := 6; i < SpinorLen; i++ {
		dst[i] = -src[i]
	}
}

// ApplyDense is a reference implementation of the Wilson operator that
// multiplies by the dense per-link (1 +- gamma_mu) (x) U matrices with no
// spin-projection trick. It exists purely to validate the fast kernel.
func (w *Wilson) ApplyDense(dst, src []complex128) {
	if len(dst) != w.Size() || len(src) != w.Size() {
		panic("dirac: ApplyDense size mismatch")
	}
	g := w.G
	diag := complex(4+w.Mass, 0)
	id := linalg.SpinIdentity()
	for s := 0; s < g.Vol; s++ {
		out := dst[s*SpinorLen : (s+1)*SpinorLen]
		in := src[s*SpinorLen : (s+1)*SpinorLen]
		for i := range out {
			out[i] = diag * in[i]
		}
		for mu := 0; mu < lattice.NDim; mu++ {
			gm := linalg.Gamma(mu)
			projM := id.AddSM(gm.ScaleSM(-1)) // 1 - gamma_mu
			projP := id.AddSM(gm)             // 1 + gamma_mu
			fw := g.Fwd(s, mu)
			denseHop(out, src[fw*SpinorLen:(fw+1)*SpinorLen], projM, w.U.U[mu][s], false)
			bw := g.Bwd(s, mu)
			denseHop(out, src[bw*SpinorLen:(bw+1)*SpinorLen], projP, w.U.U[mu][bw], true)
		}
	}
}

func denseHop(out, in []complex128, proj linalg.SpinMatrix, u linalg.SU3, adjoint bool) {
	um := u
	if adjoint {
		um = u.Adj()
	}
	for sp := 0; sp < 4; sp++ {
		for c := 0; c < 3; c++ {
			var acc complex128
			for sp2 := 0; sp2 < 4; sp2++ {
				if proj[sp][sp2] == 0 {
					continue
				}
				var cv complex128
				for c2 := 0; c2 < 3; c2++ {
					cv += um[c][c2] * in[sp2*3+c2]
				}
				acc += proj[sp][sp2] * cv
			}
			out[sp*3+c] -= 0.5 * acc
		}
	}
}
