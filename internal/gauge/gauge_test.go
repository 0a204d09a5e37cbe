package gauge

import (
	"math"
	"math/rand"
	"testing"

	"femtoverse/internal/lattice"
)

func TestUnitFieldPlaquetteIsOne(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 4)
	f := NewUnit(g)
	if p := f.Plaquette(); math.Abs(p-1) > 1e-14 {
		t.Fatalf("unit plaquette = %v", p)
	}
}

func TestRandomFieldPlaquetteNearZero(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	f := NewRandom(g, 42)
	// Haar-random links give <P> = O(1/sqrt(V)) fluctuations about 0.
	if p := f.Plaquette(); math.Abs(p) > 0.05 {
		t.Fatalf("random plaquette = %v, want ~0", p)
	}
}

func TestWeakFieldPlaquetteNearOne(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 4)
	f := NewWeak(g, 7, 0.02)
	if p := f.Plaquette(); p < 0.98 {
		t.Fatalf("weak-field plaquette = %v, want > 0.98", p)
	}
}

func TestUnitarityPreserved(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	f := NewRandom(g, 3)
	if e := maxUnitarityError(f); e > 1e-11 {
		t.Fatalf("fresh field unitarity error %g", e)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3; i++ {
		f.MetropolisSweep(rng, 5.5, 0.3, 3)
	}
	if e := maxUnitarityError(f); e > 1e-11 {
		t.Fatalf("post-sweep unitarity error %g", e)
	}
}

func TestMetropolisIncreasesPlaquetteAtStrongBeta(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 4)
	f := NewRandom(g, 11)
	p0 := f.Plaquette()
	rng := rand.New(rand.NewSource(12))
	var acc float64
	for i := 0; i < 10; i++ {
		acc = f.MetropolisSweep(rng, 6.0, 0.3, 3)
	}
	p1 := f.Plaquette()
	if p1 < p0+0.2 {
		t.Fatalf("plaquette did not order: %v -> %v", p0, p1)
	}
	if acc <= 0.05 || acc > 1 {
		t.Fatalf("acceptance rate %v implausible", acc)
	}
}

func TestPlaquetteGaugeInvariant(t *testing.T) {
	g := lattice.MustNew(2, 4, 2, 4)
	f := NewWeak(g, 5, 0.2)
	p0 := f.Plaquette()
	omega := RandomGaugeRotation(g, 6)
	if err := f.GaugeTransform(omega); err != nil {
		t.Fatal(err)
	}
	p1 := f.Plaquette()
	if math.Abs(p0-p1) > 1e-12 {
		t.Fatalf("plaquette not gauge invariant: %v vs %v", p0, p1)
	}
}

func TestGaugeTransformRejectsWrongSize(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 2)
	f := NewUnit(g)
	if err := f.GaugeTransform(nil); err == nil {
		t.Fatal("nil transform accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 2)
	f := NewRandom(g, 9)
	c := f.Clone()
	f.U[0][0][0][0] = 99
	if c.U[0][0][0][0] == 99 {
		t.Fatal("clone shares storage")
	}
}

func TestEnsembleProducesDistinctEquilibratedConfigs(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	ens := Ensemble(g, 1, 5.7, 3, 5, 2)
	if len(ens) != 3 {
		t.Fatalf("got %d configs", len(ens))
	}
	p0 := ens[0].Plaquette()
	p1 := ens[1].Plaquette()
	if p0 == p1 {
		t.Fatal("consecutive configs identical")
	}
	for i, f := range ens {
		if e := maxUnitarityError(f); e > 1e-11 {
			t.Fatalf("config %d unitarity error %g", i, e)
		}
		if p := f.Plaquette(); p < 0.2 {
			t.Fatalf("config %d not equilibrated: plaquette %v", i, p)
		}
	}
}

func TestEnsembleDeterministicForSeed(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 2)
	a := Ensemble(g, 77, 5.7, 2, 2, 1)
	b := Ensemble(g, 77, 5.7, 2, 2, 1)
	for i := range a {
		if math.Abs(a[i].Plaquette()-b[i].Plaquette()) > 1e-15 {
			t.Fatalf("config %d differs across identical seeds", i)
		}
	}
}

// TestEnsembleMatchesHMCPlaquette pins the Metropolis ensemble's mean
// plaquette at beta = 5.7 against an independent sampler: the literal is
// the mean over three configurations of a hybrid Monte Carlo run from a
// hot start on the same 4^4 lattice (10 leapfrog steps of 0.08, seed 41,
// 15 thermalisation and 2 gap trajectories), which the two algorithms
// must agree on within statistical noise.
func TestEnsembleMatchesHMCPlaquette(t *testing.T) {
	const hmcMean = 0.49422797698138476
	g := lattice.MustNew(4, 4, 4, 4)
	ens := Ensemble(g, 43, 5.7, 3, 30, 3)
	var mean float64
	for _, f := range ens {
		mean += f.Plaquette() / float64(len(ens))
	}
	if math.Abs(mean-hmcMean) > 0.08 {
		t.Fatalf("Metropolis plaquette %v vs HMC %v", mean, hmcMean)
	}
}

// maxUnitarityError returns the worst-case ||U U^dag - 1||_F over all
// links: the check that generated links stay on the group.
func maxUnitarityError(f *Field) float64 {
	worst := 0.0
	for mu := 0; mu < lattice.NDim; mu++ {
		for s := range f.U[mu] {
			if e := f.U[mu][s].UnitarityError(); e > worst {
				worst = e
			}
		}
	}
	return worst
}
