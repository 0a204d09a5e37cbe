// Package prop computes quark propagators, the dominant (97%) cost of the
// paper's workflow: for each gauge configuration, the domain-wall Dirac
// equation is solved for all 12 spin-color source components, and - this
// work's algorithmic innovation - a Feynman-Hellmann (FH) sequential
// propagator is produced with one extra solve per component, delivering
// the current insertion summed over *all* intermediate times at once
// (Bouchard et al., Phys. Rev. D 96, 014504).
package prop

import (
	"context"
	"fmt"

	"femtoverse/internal/dirac"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/solver"
)

// NComp is the number of spin-color source components per propagator.
const NComp = dirac.SpinorLen

// Propagator is the 4-D effective quark propagator from a fixed source:
// Col[j] is the sink field for source component j (j = spin*3 + color),
// so Col[j][x*12+i] = S(x; src)_{i,j}.
type Propagator struct {
	G   *lattice.Geometry
	Col [NComp][]complex128
}

// NewPropagator allocates a zero propagator on g.
func NewPropagator(g *lattice.Geometry) *Propagator {
	p := &Propagator{G: g}
	for j := range p.Col {
		p.Col[j] = make([]complex128, g.Vol*dirac.SpinorLen)
	}
	return p
}

// At returns the 12x12 spin-color matrix S(x)_{i,j} at a site.
func (p *Propagator) At(site int) *[NComp][NComp]complex128 {
	var m [NComp][NComp]complex128
	base := site * dirac.SpinorLen
	for j := 0; j < NComp; j++ {
		col := p.Col[j]
		for i := 0; i < NComp; i++ {
			m[i][j] = col[base+i]
		}
	}
	return &m
}

// PointSource returns the 4-D source field for component (spin, color)
// localized at x0: the delta-function source of the paper's workflow. A
// spin outside [0, 4) or a colour outside [0, 3) panics: it would name a
// component of another site.
func PointSource(g *lattice.Geometry, x0 [4]int, spin, color int) []complex128 {
	if spin < 0 || spin >= 4 || color < 0 || color >= 3 {
		panic(fmt.Sprintf("prop: PointSource spin %d, colour %d: want spin in [0, 4) and colour in [0, 3)", spin, color))
	}
	b := make([]complex128, g.Vol*dirac.SpinorLen)
	b[g.Index(x0)*dirac.SpinorLen+spin*3+color] = 1
	return b
}

// Inject5D embeds a 4-D source into the 5-D domain-wall source: the P+
// chirality (spins 0,1) enters the s = 0 wall and the P- chirality
// (spins 2,3) the s = Ls-1 wall.
func Inject5D(b4 []complex128, ls int) []complex128 {
	b5 := make([]complex128, ls*len(b4))
	inject5D(b5, b4, ls)
	return b5
}

// inject5D is Inject5D into b5, every element of which it writes.
func inject5D(b5, b4 []complex128, ls int) {
	vol4 := len(b4)
	clear(b5[:ls*vol4])
	for site := 0; site < vol4; site += dirac.SpinorLen {
		for i := 0; i < 6; i++ {
			b5[site+i] = b4[site+i]
		}
		for i := 6; i < 12; i++ {
			b5[(ls-1)*vol4+site+i] = b4[site+i]
		}
	}
}

// Project4D extracts the physical 4-D quark field from a 5-D solution:
// q = P- psi_0 + P+ psi_{Ls-1} (the opposite walls from the injection).
func Project4D(psi5 []complex128, ls int) []complex128 {
	vol4 := len(psi5) / ls
	q := make([]complex128, vol4)
	for site := 0; site < vol4; site += dirac.SpinorLen {
		for i := 0; i < 6; i++ {
			q[site+i] = psi5[(ls-1)*vol4+site+i]
		}
		for i := 6; i < 12; i++ {
			q[site+i] = psi5[site+i]
		}
	}
	return q
}

// SpinMul applies a spin matrix to a 4-D field site by site:
// dst_{s,c}(x) = sum_s' M[s][s'] src_{s',c}(x). dst must not alias src.
func SpinMul(dst, src []complex128, m linalg.SpinMatrix) { spinMul(dst, src, m, 0) }

// spinMul is SpinMul at a given split width.
func spinMul(dst, src []complex128, m linalg.SpinMatrix, workers int) {
	if len(dst) != len(src) || len(src)%dirac.SpinorLen != 0 {
		panic("prop: SpinMul size mismatch")
	}
	n := len(src) / dirac.SpinorLen
	linalg.For(n, workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			base := s * dirac.SpinorLen
			for sp := 0; sp < 4; sp++ {
				for c := 0; c < 3; c++ {
					var acc complex128
					for sp2 := 0; sp2 < 4; sp2++ {
						if m[sp][sp2] == 0 {
							continue
						}
						acc += m[sp][sp2] * src[base+sp2*3+c]
					}
					dst[base+sp*3+c] = acc
				}
			}
		}
	})
}

// QuarkSolver owns the preconditioned operator pair and solve parameters
// used for every propagator component.
type QuarkSolver struct {
	EO     *dirac.MobiusEO
	Sloppy *dirac.MobiusEO32
	Par    solver.Params

	// TotalStats accumulates across all solves for the workflow accounting.
	TotalIterations int
	TotalFlops      int64
	Solves          int
	// TotalRestarts counts precision-escalation restarts across all
	// solves - nonzero means the sloppy stage diverged and the divergence
	// defenses rescued the propagator.
	TotalRestarts int

	// lanes[0] solves on EO and Sloppy themselves and serves the calling
	// goroutine; the rest are the helper lanes of the batches (batch.go).
	lanes []*lane
}

// NewQuarkSolver builds a solver stack over the preconditioned operator;
// the single-precision mirror is constructed unless pure double precision
// was requested.
func NewQuarkSolver(eo *dirac.MobiusEO, par solver.Params) *QuarkSolver {
	qs := &QuarkSolver{EO: eo, Par: par}
	if par.FlopsPerApply == 0 {
		qs.Par.FlopsPerApply = eo.FlopsPerApply()
	}
	if par.Precision != solver.Double {
		qs.Sloppy = dirac.NewMobiusEO32(eo)
	}
	return qs
}

// Solve5D solves the domain-wall system for a 4-D source and returns the
// full five-dimensional solution (the midpoint slices carry the residual
// chiral-symmetry-breaking diagnostics): a batch of one.
func (qs *QuarkSolver) Solve5D(b4 []complex128) ([]complex128, solver.Stats, error) {
	return qs.solveOne(b4, clone5D)
}

// Solve4D solves the domain-wall system for a 4-D source and returns the
// projected 4-D quark field: a batch of one.
func (qs *QuarkSolver) Solve4D(b4 []complex128) ([]complex128, solver.Stats, error) {
	return qs.solveOne(b4, Project4D)
}

// solveOne solves the one system b4 as a batch and keeps what keep makes
// of its solution.
func (qs *QuarkSolver) solveOne(b4 []complex128, keep keepFunc) ([]complex128, solver.Stats, error) {
	out, st, err := qs.solveBatch(context.Background(), 1, func(int, *lane, int) []complex128 { return b4 }, keep)
	if err != nil {
		return nil, st[0], err
	}
	return out[0], st[0], nil
}

// Midpoint4D extracts the fifth-dimension midpoint field
// q_mp = P- psi_{Ls/2} + P+ psi_{Ls/2 - 1}, whose pseudoscalar density
// measures the residual chiral symmetry breaking of the finite-Ls
// domain-wall operator.
func Midpoint4D(psi5 []complex128, ls int) []complex128 {
	vol4 := len(psi5) / ls
	q := make([]complex128, vol4)
	mid := ls / 2
	for site := 0; site < vol4; site += dirac.SpinorLen {
		for i := 0; i < 6; i++ { // P+ sector from slice mid-1
			q[site+i] = psi5[(mid-1)*vol4+site+i]
		}
		for i := 6; i < 12; i++ { // P- sector from slice mid
			q[site+i] = psi5[mid*vol4+site+i]
		}
	}
	return q
}

// ResidualMass measures m_res for the solver's operator on its gauge
// field: the plateau of R(t) = C_mp(t) / C_pi(t), where C_pi is the
// wall-projected pseudoscalar correlator and C_mp its midpoint analogue
// (Blum et al.; the standard DWF diagnostic). It vanishes exponentially
// with Ls, which the tests verify. The average runs over t in
// [T/4, T/2], away from the contact region.
func (qs *QuarkSolver) ResidualMass(x0 [4]int) (float64, error) {
	g := qs.EO.M.W.G
	ls := qs.EO.M.Ls
	if ls < 4 || ls%2 != 0 {
		return 0, fmt.Errorf("prop: residual mass needs even Ls >= 4, have %d", ls)
	}
	psi5s, _, err := qs.solveBatch(context.Background(), NComp, func(j int, _ *lane, _ int) []complex128 {
		return PointSource(g, x0, j/3, j%3)
	}, clone5D)
	if err != nil {
		return 0, err
	}
	tExt := g.T()
	cw := make([]float64, tExt)
	cm := make([]float64, tExt)
	for _, psi5 := range psi5s {
		qw := Project4D(psi5, ls)
		qm := Midpoint4D(psi5, ls)
		for ts := 0; ts < tExt; ts++ {
			for _, s := range g.TimeSlice(ts) {
				base := s * dirac.SpinorLen
				for i := 0; i < dirac.SpinorLen; i++ {
					w := qw[base+i]
					m := qm[base+i]
					tt := (ts - x0[3] + tExt) % tExt
					cw[tt] += real(w)*real(w) + imag(w)*imag(w)
					cm[tt] += real(m)*real(m) + imag(m)*imag(m)
				}
			}
		}
	}
	num, den := 0.0, 0.0
	for t := tExt / 4; t <= tExt/2; t++ {
		num += cm[t]
		den += cw[t]
	}
	if den == 0 {
		return 0, fmt.Errorf("prop: vanishing pseudoscalar correlator")
	}
	return num / den, nil
}

// ComputePoint computes the propagator of a point source at x0.
func (qs *QuarkSolver) ComputePoint(x0 [4]int) (*Propagator, error) {
	return qs.ComputePointCtx(context.Background(), x0)
}

// ComputePointCtx is ComputePoint under a context: the twelve components
// are made up front, on the calling goroutine, and solved as one batch
// whose system j is component spin*3 + color; cancellation aborts between
// (or inside) component solves.
func (qs *QuarkSolver) ComputePointCtx(ctx context.Context, x0 [4]int) (*Propagator, error) {
	g := qs.EO.M.W.G
	sources := make([][]complex128, NComp)
	for j := range sources {
		sources[j] = PointSource(g, x0, j/3, j%3)
	}
	cols, err := qs.SolveBatchCtx(ctx, sources)
	if err != nil {
		return nil, fmt.Errorf("prop: propagator: %w", err)
	}
	return &Propagator{G: g, Col: [NComp][]complex128(cols)}, nil
}

// FHPropagatorCtx computes the Feynman-Hellmann sequential propagator
//
//	S_FH(x; src) = sum_y S(x, y) Gamma S(y, src)
//
// by re-solving the Dirac equation with Gamma applied to each column of
// the base propagator as the source. One extra solve per component yields
// the current insertion summed over every intermediate point - all
// source-sink separations for the cost of one, which is the paper's
// exponential improvement in time-to-solution. The twelve sequential
// sources are each built by the lane that solves them, in that lane's
// scratch, one buffer per system the lane has in flight; a cancelled ctx
// aborts the batch.
func (qs *QuarkSolver) FHPropagatorCtx(ctx context.Context, base *Propagator, gamma linalg.SpinMatrix) (*Propagator, error) {
	cols, _, err := qs.solveBatch(ctx, NComp, func(j int, l *lane, slot int) []complex128 {
		s := &l.slots[slot]
		if s.seq == nil {
			s.seq = make([]complex128, base.G.Vol*dirac.SpinorLen)
		}
		spinMul(s.seq, base.Col[j], gamma, l.eo.Workers)
		return s.seq
	}, Project4D)
	if err != nil {
		return nil, fmt.Errorf("prop: FH propagator: %w", err)
	}
	return &Propagator{G: base.G, Col: [NComp][]complex128(cols)}, nil
}
