package dirac

import (
	"sync"

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
// -M5. Apply runs on the calling goroutine and is safe for concurrent use.
type Wilson struct {
	G    *lattice.Geometry
	U    *gauge.Field
	Mass float64

	// spare holds finished applications' legs for the next ones, so that
	// Apply allocates none once as many have run at once as run now. The
	// legs cannot live on the caller's stack: siteBody is a func value,
	// through which a pointer escapes, and calling the //go:noescape AVX
	// body directly would need a file of its own for the other
	// architectures.
	mu    sync.Mutex
	spare []*Legs
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
// D^dagger = gamma_5 D gamma_5 of the Wilson operator. The site function
// applies the two gamma_5 as sign flips - on every spinor the site reads,
// and on the site's result - so the call needs no scratch vector and the
// operator stays shareable. dst == src panics, as it does for Apply.
func (w *Wilson) ApplyDagger(dst, src []complex128) { w.apply(dst, src, true) }

func (w *Wilson) apply(dst, src []complex128, dagger bool) {
	if len(dst) != w.Size() || len(src) != w.Size() {
		panic("dirac: Wilson.Apply size mismatch")
	}
	if &dst[0] == &src[0] {
		panic("dirac: Wilson.Apply dst aliases src")
	}
	// Per site the eight legs, per dimension the forward and the backward
	// neighbour, and WilsonSite.
	g, u := w.G, &w.U.U
	w.mu.Lock()
	if len(w.spare) == 0 {
		w.spare = append(w.spare, new(Legs))
	}
	legs := w.spare[len(w.spare)-1]
	w.spare = w.spare[:len(w.spare)-1]
	w.mu.Unlock()
	for s := 0; s < g.Vol; s++ {
		for mu := 0; mu < lattice.NDim; mu++ {
			fw, bw := g.Fwd(s, mu), g.Bwd(s, mu)
			legs[2*mu] = Leg{(*[SpinorLen]complex128)(src[fw*SpinorLen:]), &u[mu][s]}
			legs[2*mu+1] = Leg{(*[SpinorLen]complex128)(src[bw*SpinorLen:]), &u[mu][bw]}
		}
		WilsonSite((*[SpinorLen]complex128)(dst[s*SpinorLen:]), (*[SpinorLen]complex128)(src[s*SpinorLen:]), legs, 4+w.Mass, dagger)
	}
	w.mu.Lock()
	w.spare = append(w.spare, legs)
	w.mu.Unlock()
}

// Leg is one leg of the 4-D stencil at a site: the neighbour's spinor and
// the link that transports it.
type Leg struct {
	Psi *[SpinorLen]complex128
	U   *linalg.SU3
}

// Legs are a site's eight legs in hop-direction order d = 2*mu + b: per
// dimension the forward leg (psi(x+mu) through U_mu(x)), then the backward
// one (psi(x-mu) through U_mu(x-mu)^dagger).
type Legs [2 * lattice.NDim]Leg

// WilsonSite sets out to the Wilson operator at one site, out = diag*in -
// 1/2 sum_d (1 -+ gamma_mu) U psi over the eight legs, or with dagger to
// gamma_5 D gamma_5 there. It is the one body of the 4-D stencil: the flat
// Wilson operator and the rank-local stencil of package domain call it,
// each with its own legs. out must not alias in or a leg's spinor.
func WilsonSite(out, in *[SpinorLen]complex128, legs *Legs, diag float64, dagger bool) {
	siteBody(out, in, legs, diag, dagger)
}

// siteBody is the site body the build runs: siteGo, or where the start-up
// probe found AVX the vector body of schur_amd64.s (schur_amd64.go). It
// takes the legs by pointer, not a 128-byte copy, so legs a caller passes
// escape to the heap, where Wilson's spares and domain.Sub's table live.
var siteBody = siteGo

// siteGo is the portable site body and the reference the vector body is
// held to: the mass term, written as the complex product whose 0*x term
// decides the sign of a zero, then the eight hops in leg order. With
// dagger, every spinor read goes through a gamma_5 copy on the stack and
// the result through a gamma_5 in place.
func siteGo(out, in *[SpinorLen]complex128, legs *Legs, diag float64, dagger bool) {
	var in5 [SpinorLen]complex128
	if dagger {
		gamma5Spinor(in5[:], in[:])
		in = &in5
	}
	d := complex(diag, 0)
	for i := range out {
		out[i] = d * in[i]
	}
	for k := range legs {
		nb := legs[k].Psi
		if dagger {
			gamma5Spinor(in5[:], nb[:])
			nb = &in5
		}
		hop(out, nb, legs[k].U, k)
	}
	if dagger {
		gamma5Spinor(out[:], out[:])
	}
}

// Flops returns the flop count of one Apply in the standard convention.
func (w *Wilson) Flops() int64 { return int64(w.G.Vol) * WilsonFlopsPerSite }

// hop accumulates one hopping term of the Wilson stencil into out, for
// direction d = 2*mu + b:
//
//	out -= 1/2 (1 - gamma_mu) U in         b = 0, the forward hop
//	out -= 1/2 (1 + gamma_mu) U^dagger in  b = 1, the backward hop
//
// It is the Schur kernel's hop on one spinor: a spin projection that is an
// add or subtract of swapped parts, two colour-vector SU(3) products, and
// the lower spins reconstructed by the same swaps - the QUDA matrix-free
// stencil in scalar form, and the one copy of it, which siteGo calls per
// leg.
func hop(out, in *[SpinorLen]complex128, u *linalg.SU3, d int) {
	var h, uh halfSpinor[float64]
	h.project(spinor64(in), d)
	if d&1 == 0 {
		uh.mul(link64(u), &h)
	} else {
		uh.mulAdj(link64(u), &h)
	}
	uh.reconstruct(spinor64(out), d)
}

// Gamma5 computes dst = gamma_5 src on a 4-D field (diagonal in the
// DeGrand-Rossi basis: spins 0,1 keep sign, spins 2,3 flip). dst and src
// may alias. It runs on the calling goroutine and allocates nothing; with
// it any Apply-only operator gains ApplyDagger by gamma_5 hermiticity,
// which is how the distributed operators of packages domain and wire
// apply theirs on the rank.
func Gamma5(dst, src []complex128) {
	if len(dst) != len(src) || len(src)%SpinorLen != 0 {
		panic("dirac: Gamma5 size mismatch")
	}
	for s := 0; s < len(src); s += SpinorLen {
		gamma5Spinor(dst[s:s+SpinorLen], src[s:s+SpinorLen])
	}
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
