package prop

import (
	"context"
	"fmt"

	"femtoverse/internal/dirac"
	"femtoverse/internal/linalg"
	"femtoverse/internal/solver"
)

// The Feynman-Hellmann construction itself [Bouchard et al., PRD 96,
// 014504]: perturb the action with a current, S -> S + lambda J, and the
// derivative of any correlator with respect to lambda at zero produces
// the current's matrix elements summed over all insertion points. At the
// propagator level, with the 4-D effective propagator written as
// S4 = P D5^{-1} I (P the wall projection, I the wall injection),
//
//	D5(lambda) = D5 - lambda * I Gamma P
//	d/dlambda S4(lambda) |_0 = S4 Gamma S4,
//
// which is exactly the sequential FH propagator computed by
// QuarkSolver.FHPropagatorCtx. PerturbedMobius implements D5(lambda), so
// the finite-difference derivative of a correlator through real solves
// validates the sequential implementation end to end - the sharpest
// correctness check this repository has for the paper's core algorithm.

// PerturbedMobius is the Mobius operator with a Feynman-Hellmann current
// insertion of strength Lambda and spin structure Gamma.
type PerturbedMobius struct {
	M      *dirac.Mobius
	Lambda float64
	Gamma  linalg.SpinMatrix

	t4a, t4b []complex128
	t5       []complex128
}

// NewPerturbedMobius wraps the operator.
func NewPerturbedMobius(m *dirac.Mobius, lambda float64, gamma linalg.SpinMatrix) *PerturbedMobius {
	vol4 := m.W.G.Vol * dirac.SpinorLen
	return &PerturbedMobius{
		M: m, Lambda: lambda, Gamma: gamma,
		t4a: make([]complex128, vol4),
		t4b: make([]complex128, vol4),
		t5:  make([]complex128, m.Size()),
	}
}

// Size implements solver.Linear.
func (p *PerturbedMobius) Size() int { return p.M.Size() }

// projectAdj is the adjoint of Project4D: it injects the 4-D field into
// the components Project4D reads (upper spins at wall Ls-1, lower at
// wall 0), zero elsewhere.
func projectAdj(phi4 []complex128, ls int, out []complex128) {
	vol4 := len(phi4)
	for i := range out {
		out[i] = 0
	}
	for site := 0; site < vol4; site += dirac.SpinorLen {
		for i := 0; i < 6; i++ {
			out[(ls-1)*vol4+site+i] = phi4[site+i]
		}
		for i := 6; i < 12; i++ {
			out[site+i] = phi4[site+i]
		}
	}
}

// injectAdj is the adjoint of Inject5D: it reads the components Inject5D
// writes (upper spins from wall 0, lower from wall Ls-1).
func injectAdj(psi5 []complex128, ls int) []complex128 {
	vol4 := len(psi5) / ls
	out := make([]complex128, vol4)
	for site := 0; site < vol4; site += dirac.SpinorLen {
		for i := 0; i < 6; i++ {
			out[site+i] = psi5[site+i]
		}
		for i := 6; i < 12; i++ {
			out[site+i] = psi5[(ls-1)*vol4+site+i]
		}
	}
	return out
}

// Apply computes dst = [D5 - lambda * I Gamma P] src.
func (p *PerturbedMobius) Apply(dst, src []complex128) {
	p.M.Apply(dst, src)
	ls := p.M.Ls
	copy(p.t4a, Project4D(src, ls))
	SpinMul(p.t4b, p.t4a, p.Gamma)
	ins := Inject5D(p.t4b, ls)
	lam := complex(-p.Lambda, 0)
	for i := range dst {
		dst[i] += lam * ins[i]
	}
}

// ApplyDagger computes dst = [D5 - lambda * I Gamma P]^dag src
// = D5^dag src - lambda * P^dag Gamma^dag I^dag src.
func (p *PerturbedMobius) ApplyDagger(dst, src []complex128) {
	p.M.ApplyDagger(dst, src)
	ls := p.M.Ls
	copy(p.t4a, injectAdj(src, ls))
	SpinMul(p.t4b, p.t4a, p.Gamma.AdjSM())
	projectAdj(p.t4b, ls, p.t5)
	lam := complex(-p.Lambda, 0)
	for i := range dst {
		dst[i] += lam * p.t5[i]
	}
}

// ComputePerturbed solves all 12 point-source components through the
// perturbed operator (unpreconditioned CGNE - the rank-structured
// insertion breaks the red-black Schur form) and returns the 4-D
// propagator S4(lambda).
func ComputePerturbed(m *dirac.Mobius, lambda float64, gamma linalg.SpinMatrix,
	x0 [4]int, par solver.Params) (*Propagator, error) {
	g := m.W.G
	op := NewPerturbedMobius(m, lambda, gamma)
	out := NewPropagator(g)
	for spin := 0; spin < 4; spin++ {
		for color := 0; color < 3; color++ {
			b5 := Inject5D(PointSource(g, x0, spin, color), m.Ls)
			x, st, err := solver.CGNE(context.Background(), op, b5, par)
			if err != nil {
				return nil, fmt.Errorf("prop: perturbed solve (%d,%d): %w", spin, color, err)
			}
			if !st.Converged {
				return nil, fmt.Errorf("prop: perturbed solve (%d,%d) stalled at %g", spin, color, st.TrueResidual)
			}
			out.Col[spin*3+color] = Project4D(x, m.Ls)
		}
	}
	return out, nil
}
