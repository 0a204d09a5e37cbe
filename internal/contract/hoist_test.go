package contract

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/prop"
)

// testProp is a propagator on g with entries of one kind: "random" is
// Gaussian, "zeros" mostly +0 and -0 with a Gaussian entry in eight,
// "nonfinite" Gaussian with one infinity or NaN, at a site of timeslice
// 2(seed-1) mod T, so that distinct seeds poison distinct even timeslices
// and leave the odd ones finite.
func testProp(g *lattice.Geometry, seed int64, kind string) *prop.Propagator {
	rng := rand.New(rand.NewSource(seed))
	part := func() float64 {
		switch {
		case kind == "zeros" && rng.Intn(8) != 0:
			return math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
		return rng.NormFloat64()
	}
	p := prop.NewPropagator(g)
	for j := range p.Col {
		for i := range p.Col[j] {
			p.Col[j][i] = complex(part(), part())
		}
	}
	if kind == "nonfinite" {
		specials := []complex128{complex(math.Inf(1), 0), complex(1, math.Inf(-1)), complex(math.NaN(), 2)}
		lo, hi := g.TimeSliceRange(int(2*(seed-1)) % g.T())
		site := lo + rng.Intn(hi-lo)
		p.Col[rng.Intn(prop.NComp)][site*12+rng.Intn(12)] = specials[seed%3]
	}
	return p
}

// sameCorrelator reports where a and b differ in a bit. A NaN matches any
// NaN: which of two NaNs an x86 add returns depends on the operand order
// gc's register allocator picks, which differs between two compilations
// of the same expression, and no caller can tell the payloads apart.
func sameCorrelator(a, b []complex128) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d and %d", len(a), len(b))
	}
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	for t := range a {
		if !same(real(a[t]), real(b[t])) || !same(imag(a[t]), imag(b[t])) {
			return fmt.Errorf("t=%d: %v (%#x %#x), reference %v (%#x %#x)", t,
				a[t], math.Float64bits(real(a[t])), math.Float64bits(imag(a[t])),
				b[t], math.Float64bits(real(b[t])), math.Float64bits(imag(b[t])))
		}
	}
	return nil
}

// setLaneBudget sets linalg.DefaultWorkers for the rest of the test.
func setLaneBudget(t *testing.T, n int) {
	t.Helper()
	old := linalg.DefaultWorkers
	linalg.DefaultWorkers = n
	t.Cleanup(func() { linalg.DefaultWorkers = old })
}

// TestProtonContractionsBitForBit holds Proton2pt and ProtonFH3pt to the
// contractions they replaced (ref_test.go) bit for bit, NaNs included, on
// four distinct propagators - u != d and fhU != fhD, so that no slot can
// stand in for another - of random, zero-heavy and non-finite entries,
// at lane budgets of 1, 2 and 4: each timeslice is summed by one lane in
// the serial order whichever lane takes it.
func TestProtonContractionsBitForBit(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 8)
	for _, kind := range []string{"random", "zeros", "nonfinite"} {
		u, d, fu, fd := testProp(g, 1, kind), testProp(g, 2, kind), testProp(g, 3, kind), testProp(g, 4, kind)
		const t0 = 3
		want2, want3 := proton2ptRef(u, d, t0), protonFH3ptRef(u, d, fu, fd, t0)
		if kind == "nonfinite" {
			finite := 0
			for _, v := range want3 {
				if !cmplx.IsNaN(v) && !cmplx.IsInf(v) {
					finite++
				}
			}
			if finite == 0 || finite == len(want3) {
				t.Fatalf("%d of %d timeslices finite: want both kinds", finite, len(want3))
			}
		}
		for _, lanes := range []int{1, 2, 4} {
			setLaneBudget(t, lanes)
			if err := sameCorrelator(Proton2pt(u, d, t0), want2); err != nil {
				t.Errorf("%s, %d lanes: Proton2pt %v", kind, lanes, err)
			}
			if err := sameCorrelator(ProtonFH3pt(u, d, fu, fd, t0), want3); err != nil {
				t.Errorf("%s, %d lanes: ProtonFH3pt %v", kind, lanes, err)
			}
		}
	}
}

// TestProtonContractionDoesNotAllocatePerSite: the per-site blocks live in
// each lane's scratch, so a contraction allocates the same on 32 sites as
// on 128. On one lane the count is exact.
func TestProtonContractionDoesNotAllocatePerSite(t *testing.T) {
	setLaneBudget(t, 1)
	var counts [2][2]float64
	for i, dims := range [][4]int{{2, 2, 2, 4}, {2, 2, 4, 8}} {
		g := lattice.MustNew(dims[0], dims[1], dims[2], dims[3])
		u, fh := testProp(g, 1, "random"), testProp(g, 2, "random")
		counts[i][0] = testing.AllocsPerRun(3, func() { Proton2pt(u, u, 0) })
		counts[i][1] = testing.AllocsPerRun(3, func() { ProtonFH3pt(u, u, fh, fh, 0) })
	}
	if counts[0] != counts[1] {
		t.Fatalf("allocations [Proton2pt ProtonFH3pt] on 2x2x2x4 %v, on 2x2x4x8 %v", counts[0], counts[1])
	}
}
