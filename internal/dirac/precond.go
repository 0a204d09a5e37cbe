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

	// The kernel: the operator in float64 lanes (a, c, the fifth-dimension
	// inverses minvP/minvM), shared by every View, and this applier's own
	// scratch.
	schur[float64]
}

// NewMobiusEO builds the preconditioned operator from a Mobius operator.
func NewMobiusEO(m *Mobius) (*MobiusEO, error) {
	wkernel := 4 + m.W.Mass // = 4 - M5, the Wilson-kernel diagonal
	a, c := wkernel*m.B5+1, wkernel*m.C5-1
	ls := m.Ls
	// A restricted to the P+ sector: a on the diagonal, c on the
	// subdiagonal, -m*c in the upper-right corner.
	ap := make([]float64, ls*ls)
	for s := 0; s < ls; s++ {
		ap[s*ls+s] = a
		if s > 0 {
			ap[s*ls+s-1] = c
		}
	}
	ap[0*ls+ls-1] += -m.M * c
	inv, err := linalg.InvReal(ls, ap)
	if err != nil {
		return nil, fmt.Errorf("dirac: fifth-dimension operator singular (a=%g, c=%g, m=%g): %w", a, c, m.M, err)
	}
	p := &MobiusEO{M: m, EO: lattice.NewEvenOdd(m.W.G)}
	p.schurOp = schurOp[float64]{
		ls: ls, halfVol: p.EO.HalfVol(), hops: &p.EO.Hops, oddLex: p.EO.EOToLex[1],
		a: a, c: c, b5: m.B5, c5: m.C5, m: m.M,
		minvP: inv, minvM: linalg.TransposeReal(ls, inv),
	}
	for mu := range p.u {
		p.u[mu] = links64(m.W.U.U[mu])
	}
	p.setLayout()
	p.own()
	return p, nil
}

// View returns an operator that is p to the bit - the same Mobius
// operator, even-odd tables, links and fifth-dimension inverses, by
// reference - but applies through scratch and pass state of its own, so
// that p and any number of views may run Apply, ApplyDagger, ApplyNormal,
// PrepareSource and Reconstruct at the same time, each on its caller's
// goroutine. It costs four half-fields.
func (p *MobiusEO) View() *MobiusEO {
	v := &MobiusEO{M: p.M, EO: p.EO}
	v.schurOp = p.schurOp
	v.own()
	return v
}

// HalfVol returns the number of 4-D sites per parity block.
func (p *MobiusEO) HalfVol() int { return p.EO.HalfVol() }

// HalfSize returns the component count of a half-volume 5-D field.
func (p *MobiusEO) HalfSize() int { return p.M.Ls * p.HalfVol() * SpinorLen }

// Size implements the solver operator interface on half fields.
func (p *MobiusEO) Size() int { return p.HalfSize() }

// run makes one pass of the kernel on fields viewed as lanes.
func (p *MobiusEO) run(st schurStage, dst, src []complex128) {
	p.schur.run(st, lanes64(dst), lanes64(src))
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
	p.run(stageLoad, nil, src)
	p.run(stageInnerDag, nil, nil)
	p.run(stageOuterDag, dst, src)
}

// ApplyNormal sets dst[j] = Dhat^dagger Dhat src[j], the CG normal
// operator, for every system: to the bit ApplyDagger of Apply.
func (p *MobiusEO) ApplyNormal(dst, src [][]complex128) {
	applyNormal(&p.schur, dst, src, lanes64)
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
	p.PrepareSourceInto(bhat, etaOdd, eta)
	return bhat, etaOdd
}

// PrepareSourceInto is PrepareSource into the caller's half fields, every
// element of which it writes.
func (p *MobiusEO) PrepareSourceInto(bhat, etaOdd, eta []complex128) {
	p.GatherParity5D(0, eta, bhat)   // bhat = eta_e
	p.GatherParity5D(1, eta, etaOdd) // saved for reconstruction
	p.run(stageFibre, nil, etaOdd)   // t2 = B A^{-1} eta_o
	p.run(stagePrepare, bhat, nil)   // bhat -= Hop_eo t2
}

// Reconstruct rebuilds the full-lattice solution from the even solution
// and the saved odd source: psi_o = A^{-1}(eta_o - K_oe psi_e), written
// straight into the odd sites of the full field.
func (p *MobiusEO) Reconstruct(psiEven, etaOdd []complex128) []complex128 {
	full := make([]complex128, p.M.Size())
	p.ReconstructInto(full, psiEven, etaOdd)
	return full
}

// ReconstructInto is Reconstruct into the caller's full field, every
// element of which it writes.
func (p *MobiusEO) ReconstructInto(full, psiEven, etaOdd []complex128) {
	p.ScatterParity5D(0, psiEven, full)
	p.run(stageB, nil, psiEven)     // t1 = B psi_e
	p.run(stageRecon, full, etaOdd) // psi_o
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
