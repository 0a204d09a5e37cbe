// Package gauge provides SU(3) gauge-field configurations: the "gluonic
// field" inputs of the paper's workflow (Fig. 2). Because the MILC/CalLat
// production ensembles are not available, configurations are generated
// locally: exactly unit (free field), Haar-random (infinite temperature),
// or equilibrated with a Metropolis pseudo-heatbath under the Wilson
// plaquette action. All generation is deterministic given a seed so tests
// and examples are reproducible.
package gauge

import (
	"fmt"
	"math"
	"math/rand"

	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// Field is an SU(3) gauge configuration: one link matrix per site and
// direction, U[mu][site].
type Field struct {
	G *lattice.Geometry
	U [lattice.NDim][]linalg.SU3
}

// NewUnit returns the free-field configuration with every link set to the
// identity; the Dirac operator on it is exactly diagonalizable in momentum
// space, which anchors the solver correctness tests.
func NewUnit(g *lattice.Geometry) *Field {
	f := &Field{G: g}
	for mu := 0; mu < lattice.NDim; mu++ {
		f.U[mu] = make([]linalg.SU3, g.Vol)
		for s := range f.U[mu] {
			f.U[mu][s] = linalg.IdentitySU3()
		}
	}
	return f
}

// NewRandom returns a Haar-random ("infinite temperature") configuration.
func NewRandom(g *lattice.Geometry, seed int64) *Field {
	rng := rand.New(rand.NewSource(seed))
	f := &Field{G: g}
	for mu := 0; mu < lattice.NDim; mu++ {
		f.U[mu] = make([]linalg.SU3, g.Vol)
		for s := range f.U[mu] {
			f.U[mu][s] = linalg.RandomSU3(rng)
		}
	}
	return f
}

// NewWeak returns a weakly-fluctuating configuration: links are random
// SU(3) elements within eps of the identity. Useful for perturbative-style
// checks where the free-field analysis should survive approximately.
func NewWeak(g *lattice.Geometry, seed int64, eps float64) *Field {
	rng := rand.New(rand.NewSource(seed))
	f := &Field{G: g}
	for mu := 0; mu < lattice.NDim; mu++ {
		f.U[mu] = make([]linalg.SU3, g.Vol)
		for s := range f.U[mu] {
			f.U[mu][s] = linalg.RandomSU3Near(rng, eps)
		}
	}
	return f
}

// Clone deep-copies the field.
func (f *Field) Clone() *Field {
	c := &Field{G: f.G}
	for mu := 0; mu < lattice.NDim; mu++ {
		c.U[mu] = append([]linalg.SU3(nil), f.U[mu]...)
	}
	return c
}

// staple returns the sum of the six staples around link (s, mu): the
// derivative of the Wilson plaquette action with respect to that link.
func (f *Field) staple(s, mu int) linalg.SU3 {
	g := f.G
	var sum linalg.SU3
	for nu := 0; nu < lattice.NDim; nu++ {
		if nu == mu {
			continue
		}
		sMu := g.Fwd(s, mu)
		sNu := g.Fwd(s, nu)
		// Forward staple: U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag.
		fwd := f.U[nu][sMu].Mul(f.U[mu][sNu].Adj()).Mul(f.U[nu][s].Adj())
		// Backward staple: U_nu(x+mu-nu)^dag U_mu(x-nu)^dag U_nu(x-nu).
		sBnu := g.Bwd(s, nu)
		sMuBnu := g.Bwd(sMu, nu)
		bwd := f.U[nu][sMuBnu].Adj().Mul(f.U[mu][sBnu].Adj()).Mul(f.U[nu][sBnu])
		sum = sum.Add(fwd).Add(bwd)
	}
	return sum
}

// Plaquette returns the average plaquette
// (1/6V) sum_{x, mu<nu} Re tr[U_mu(x) U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag]/3,
// normalised so the free field gives exactly 1.
func (f *Field) Plaquette() float64 {
	g := f.G
	sum := linalg.ReduceFloat64(g.Vol, func(lo, hi int) float64 {
		acc := 0.0
		for s := lo; s < hi; s++ {
			for mu := 0; mu < lattice.NDim; mu++ {
				for nu := mu + 1; nu < lattice.NDim; nu++ {
					sMu := g.Fwd(s, mu)
					sNu := g.Fwd(s, nu)
					p := f.U[mu][s].Mul(f.U[nu][sMu]).Mul(f.U[mu][sNu].Adj()).Mul(f.U[nu][s].Adj())
					acc += real(p.Trace())
				}
			}
		}
		return acc
	})
	return sum / (float64(g.Vol) * 6 * 3)
}

// MetropolisSweep performs one Metropolis sweep of the Wilson plaquette
// action at coupling beta with proposal step eps, returning the acceptance
// rate. nHits proposals are made per link, the standard multi-hit scheme.
func (f *Field) MetropolisSweep(rng *rand.Rand, beta, eps float64, nHits int) float64 {
	accepted, proposed := 0, 0
	for mu := 0; mu < lattice.NDim; mu++ {
		for s := 0; s < f.G.Vol; s++ {
			st := f.staple(s, mu)
			for h := 0; h < nHits; h++ {
				r := linalg.RandomSU3Near(rng, eps)
				uNew := r.Mul(f.U[mu][s])
				// dS = -beta/3 Re tr[(U' - U) * staple].
				diff := uNew.Add(f.U[mu][s].ScaleSU3(-1))
				dS := -beta / 3 * real(diff.Mul(st).Trace())
				proposed++
				if dS <= 0 || rng.Float64() < math.Exp(-dS) {
					f.U[mu][s] = uNew
					accepted++
				}
			}
			// Periodic reunitarization guards against drift.
			f.U[mu][s] = f.U[mu][s].Reunitarize()
		}
	}
	return float64(accepted) / float64(proposed)
}

// GaugeTransform applies a local gauge rotation Omega:
// U_mu(x) -> Omega(x) U_mu(x) Omega(x+mu)^dag. Gauge-invariant
// observables (plaquette, hadron correlators) must be unchanged; tests
// rely on this to validate the whole measurement chain.
func (f *Field) GaugeTransform(omega []linalg.SU3) error {
	if len(omega) != f.G.Vol {
		return fmt.Errorf("gauge: transform field has %d sites, lattice has %d", len(omega), f.G.Vol)
	}
	for mu := 0; mu < lattice.NDim; mu++ {
		for s := 0; s < f.G.Vol; s++ {
			f.U[mu][s] = omega[s].Mul(f.U[mu][s]).Mul(omega[f.G.Fwd(s, mu)].Adj())
		}
	}
	return nil
}

// RandomGaugeRotation draws a Haar-random gauge transformation field.
func RandomGaugeRotation(g *lattice.Geometry, seed int64) []linalg.SU3 {
	rng := rand.New(rand.NewSource(seed))
	omega := make([]linalg.SU3, g.Vol)
	for s := range omega {
		omega[s] = linalg.RandomSU3(rng)
	}
	return omega
}

// FlipTimeBoundary multiplies every time-direction link on the last time
// slice by -1, imposing antiperiodic temporal boundary conditions on the
// fermions that hop across it (the standard finite-temperature-correct
// choice for hadron correlators). The plaquette is invariant because every
// plaquette contains either zero or two flipped links.
func (f *Field) FlipTimeBoundary() {
	const tDir = 3
	tMax := f.G.Dims[tDir] - 1
	for s := 0; s < f.G.Vol; s++ {
		if f.G.Coords(s)[tDir] == tMax {
			f.U[tDir][s] = f.U[tDir][s].ScaleSU3(-1)
		}
	}
}

// Ensemble generates n configurations separated by nSweeps Metropolis
// sweeps at coupling beta after nTherm thermalisation sweeps, mimicking
// the Monte Carlo ensembles of the paper's workflow. The returned slice
// holds independent deep copies.
func Ensemble(g *lattice.Geometry, seed int64, beta float64, n, nTherm, nSweeps int) []*Field {
	rng := rand.New(rand.NewSource(seed))
	f := NewRandom(g, seed+1)
	for i := 0; i < nTherm; i++ {
		f.MetropolisSweep(rng, beta, 0.35, 5)
	}
	out := make([]*Field, 0, n)
	for i := 0; i < n; i++ {
		for j := 0; j < nSweeps; j++ {
			f.MetropolisSweep(rng, beta, 0.35, 5)
		}
		out = append(out, f.Clone())
	}
	return out
}
