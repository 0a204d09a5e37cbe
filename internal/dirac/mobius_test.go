package dirac

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

func testMobius(t *testing.T, seed int64) *Mobius {
	t.Helper()
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewRandom(g, seed)
	m, err := NewMobius(cfg, MobiusParams{Ls: 6, M5: 1.4, B5: 1.5, C5: 0.5, M: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// applyDense applies the Mobius operator by brute-force column probing...
// too expensive; instead the reference is the definition itself computed
// with dense Wilson applications and explicit projector arithmetic.
func mobiusReference(m *Mobius, src []complex128) []complex128 {
	ls := m.Ls
	vol4 := m.W.G.Vol * SpinorLen
	dst := make([]complex128, len(src))
	chi := make([]complex128, len(src))
	// chi_s = P- src_{s+1} + P+ src_{s-1} with -m wraps, via dense
	// projector matrices.
	g5 := linalg.Gamma(4)
	id := linalg.SpinIdentity()
	pPlus := id.AddSM(g5).ScaleSM(0.5)
	pMinus := id.AddSM(g5.ScaleSM(-1)).ScaleSM(0.5)
	applyProj := func(dst, src []complex128, proj linalg.SpinMatrix, scale complex128) {
		nSites := len(src) / SpinorLen
		for s := 0; s < nSites; s++ {
			for sp := 0; sp < 4; sp++ {
				for c := 0; c < 3; c++ {
					var acc complex128
					for sp2 := 0; sp2 < 4; sp2++ {
						acc += proj[sp][sp2] * src[s*SpinorLen+sp2*3+c]
					}
					dst[s*SpinorLen+sp*3+c] += scale * acc
				}
			}
		}
	}
	for s := 0; s < ls; s++ {
		cSl := chi[s*vol4 : (s+1)*vol4]
		// P- part from s+1.
		sp, w := s+1, complex128(1)
		if sp == ls {
			sp, w = 0, complex(-m.M, 0)
		}
		applyProj(cSl, src[sp*vol4:(sp+1)*vol4], pMinus, w)
		// P+ part from s-1.
		sm, w2 := s-1, complex128(1)
		if sm < 0 {
			sm, w2 = ls-1, complex(-m.M, 0)
		}
		applyProj(cSl, src[sm*vol4:(sm+1)*vol4], pPlus, w2)
	}
	cmb := make([]complex128, len(src))
	for i := range cmb {
		cmb[i] = complex(m.B5, 0)*src[i] + complex(m.C5, 0)*chi[i]
	}
	for s := 0; s < ls; s++ {
		m.W.ApplyDense(dst[s*vol4:(s+1)*vol4], cmb[s*vol4:(s+1)*vol4])
	}
	for i := range dst {
		dst[i] += src[i] - chi[i]
	}
	return dst
}

func TestMobiusMatchesDenseReference(t *testing.T) {
	m := testMobius(t, 31)
	rng := rand.New(rand.NewSource(1))
	src := randField(rng, m.Size())
	fast := make([]complex128, m.Size())
	m.Apply(fast, src)
	ref := mobiusReference(m, src)
	if d := fieldDist(fast, ref); d > 1e-10 {
		t.Fatalf("Mobius fast vs reference differ by %g", d)
	}
}

func TestMobiusDaggerIsTrueAdjoint(t *testing.T) {
	m := testMobius(t, 33)
	rng := rand.New(rand.NewSource(2))
	x := randField(rng, m.Size())
	y := randField(rng, m.Size())
	dy := make([]complex128, m.Size())
	m.Apply(dy, y)
	lhs := linalg.Dot(x, dy, 0)
	ddx := make([]complex128, m.Size())
	m.ApplyDagger(ddx, x)
	rhs := linalg.Dot(ddx, y, 0)
	if cmplx.Abs(lhs-rhs) > 1e-9*(1+cmplx.Abs(lhs)) {
		t.Fatalf("Mobius adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestMobiusShamirLimit(t *testing.T) {
	// With b5 = 1, c5 = 0 the operator must reduce to Shamir domain wall:
	// D psi_s = Dw psi_s + psi_s - chi_s.
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewRandom(g, 35)
	m, err := NewMobius(cfg, MobiusParams{Ls: 4, M5: 1.2, B5: 1, C5: 0, M: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	src := randField(rng, m.Size())
	got := make([]complex128, m.Size())
	m.Apply(got, src)
	want := mobiusReference(m, src)
	if d := fieldDist(got, want); d > 1e-10 {
		t.Fatalf("Shamir limit mismatch: %g", d)
	}
}

func TestMobiusParamValidation(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 2)
	cfg := gauge.NewUnit(g)
	bad := []MobiusParams{
		{Ls: 1, M5: 1.4, B5: 1, C5: 0, M: 0.1},
		{Ls: 8, M5: 0, B5: 1, C5: 0, M: 0.1},
		{Ls: 8, M5: 2.5, B5: 1, C5: 0, M: 0.1},
		{Ls: 8, M5: 1.4, B5: -1, C5: 0, M: 0.1},
		{Ls: 8, M5: 1.4, B5: 1, C5: 0, M: -0.2},
	}
	for i, p := range bad {
		if _, err := NewMobius(cfg, p); err == nil {
			t.Fatalf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestMobiusLinearity(t *testing.T) {
	m := testMobius(t, 39)
	rng := rand.New(rand.NewSource(5))
	x := randField(rng, m.Size())
	y := randField(rng, m.Size())
	a := complex(0.3, 0.7)
	comb := make([]complex128, m.Size())
	linalg.AxpyZ(a, x, y, comb, 0)
	dc := make([]complex128, m.Size())
	m.Apply(dc, comb)
	dx := make([]complex128, m.Size())
	m.Apply(dx, x)
	dy := make([]complex128, m.Size())
	m.Apply(dy, y)
	want := make([]complex128, m.Size())
	linalg.AxpyZ(a, dx, dy, want, 0)
	if d := fieldDist(dc, want); d > 1e-10 {
		t.Fatalf("linearity violated: %g", d)
	}
}

func TestMobiusFlopsDominatedByWilson(t *testing.T) {
	m := testMobius(t, 41)
	f := m.Flops()
	wilson := int64(m.Ls) * m.W.Flops()
	if f <= wilson {
		t.Fatal("flops must exceed pure Wilson part")
	}
	if float64(f) > 1.2*float64(wilson) {
		t.Fatalf("aux flops implausibly large: %d vs %d", f, wilson)
	}
}
