package dirac

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

func randField(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func fieldDist(a, b []complex128) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(s)
}

func TestWilsonFastMatchesDenseReference(t *testing.T) {
	g := lattice.MustNew(4, 2, 2, 4)
	for _, cfg := range []*gauge.Field{gauge.NewUnit(g), gauge.NewRandom(g, 5)} {
		w := NewWilson(cfg, 0.1)
		rng := rand.New(rand.NewSource(1))
		src := randField(rng, w.Size())
		fast := make([]complex128, w.Size())
		dense := make([]complex128, w.Size())
		w.Apply(fast, src)
		w.ApplyDense(dense, src)
		if d := fieldDist(fast, dense); d > 1e-11 {
			t.Fatalf("fast vs dense kernel differ by %g", d)
		}
	}
}

func TestWilsonGamma5Hermiticity(t *testing.T) {
	g := lattice.MustNew(2, 2, 4, 4)
	w := NewWilson(gauge.NewRandom(g, 9), -1.3)
	rng := rand.New(rand.NewSource(2))
	x := randField(rng, w.Size())
	y := randField(rng, w.Size())
	// <x, g5 D g5 y> must equal <D x, y> = conj(<y, ... >); test
	// <g5 D g5 x, y> == <x, D y> fails unless D^dag = g5 D g5.
	dy := make([]complex128, w.Size())
	w.Apply(dy, y)
	lhs := linalg.Dot(x, dy)

	gdx := make([]complex128, w.Size())
	Gamma5(gdx, x)
	tmp := make([]complex128, w.Size())
	w.Apply(tmp, gdx)
	Gamma5(tmp, tmp)
	rhs := linalg.Dot(tmp, y)
	if cmplx.Abs(lhs-rhs) > 1e-9*(1+cmplx.Abs(lhs)) {
		t.Fatalf("gamma_5 hermiticity violated: %v vs %v", lhs, rhs)
	}
}

func TestWilsonApplyDaggerIsTrueAdjoint(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	w := NewWilson(gauge.NewRandom(g, 11), 0.05)
	rng := rand.New(rand.NewSource(3))
	x := randField(rng, w.Size())
	y := randField(rng, w.Size())
	dy := make([]complex128, w.Size())
	w.Apply(dy, y)
	ddx := make([]complex128, w.Size())
	w.ApplyDagger(ddx, x)
	lhs := linalg.Dot(x, dy)  // <x, D y>
	rhs := linalg.Dot(ddx, y) // <D^dag x, y>
	if cmplx.Abs(lhs-rhs) > 1e-9*(1+cmplx.Abs(lhs)) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestWilsonFreeFieldConstantMode(t *testing.T) {
	// On the unit gauge field, a spatially constant spinor is an
	// eigenvector of D with eigenvalue Mass (hopping cancels the 4).
	g := lattice.MustNew(4, 4, 4, 4)
	mass := 0.37
	w := NewWilson(gauge.NewUnit(g), mass)
	src := make([]complex128, w.Size())
	for s := 0; s < g.Vol; s++ {
		for i := 0; i < SpinorLen; i++ {
			src[s*SpinorLen+i] = complex(float64(i+1), -0.5)
		}
	}
	dst := make([]complex128, w.Size())
	w.Apply(dst, src)
	for i := range dst {
		want := complex(mass, 0) * src[i]
		if cmplx.Abs(dst[i]-want) > 1e-12 {
			t.Fatalf("constant mode not eigenvector at %d: %v vs %v", i, dst[i], want)
		}
	}
}

func TestWilsonLinearity(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	w := NewWilson(gauge.NewRandom(g, 13), 0)
	rng := rand.New(rand.NewSource(4))
	x := randField(rng, w.Size())
	y := randField(rng, w.Size())
	a := complex(1.5, -0.5)
	// D(a x + y) = a D x + D y
	comb := make([]complex128, w.Size())
	linalg.AxpyZ(a, x, y, comb)
	dComb := make([]complex128, w.Size())
	w.Apply(dComb, comb)
	dx := make([]complex128, w.Size())
	dy := make([]complex128, w.Size())
	w.Apply(dx, x)
	w.Apply(dy, y)
	want := make([]complex128, w.Size())
	linalg.AxpyZ(a, dx, dy, want)
	if d := fieldDist(dComb, want); d > 1e-10 {
		t.Fatalf("linearity violated: %g", d)
	}
}

// TestWilsonWorkerCountInvariance: one operator applied by 2, 4 and 16
// lanes at once, under a lane budget of that many, gives each lane the
// lone Apply's result to the bit: every lane runs its site loop whole on its
// own goroutine, and the shared operator's spare legs never mix two calls.
func TestWilsonWorkerCountInvariance(t *testing.T) {
	g := lattice.MustNew(4, 4, 2, 4)
	cfg := gauge.NewRandom(g, 17)
	rng := rand.New(rand.NewSource(5))
	src := randField(rng, g.Vol*SpinorLen)
	ref := make([]complex128, len(src))
	w := NewWilson(cfg, 0.2)
	w.Apply(ref, src)
	defer func(n int) { linalg.DefaultWorkers = n }(linalg.DefaultWorkers)
	for _, workers := range []int{2, 4, 16} {
		linalg.DefaultWorkers = workers
		outs := make([][]complex128, workers)
		var wg sync.WaitGroup
		for l := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				linalg.EnterLane()
				defer linalg.LeaveLane()
				outs[l] = make([]complex128, len(src))
				w.Apply(outs[l], src)
			}()
		}
		wg.Wait()
		for l, out := range outs {
			if d := fieldDist(ref, out); d != 0 {
				t.Fatalf("workers=%d lane %d: changed result by %g", workers, l, d)
			}
		}
	}
}

// TestWilsonApplyDoesNotAllocate: the flat operator and the 5-D Mobius
// operator built on it run on the calling goroutine and build no closure,
// so no Apply or ApplyDagger allocates - with a lane budget of two cores
// as much as with one.
func TestWilsonApplyDoesNotAllocate(t *testing.T) {
	defer func(n int) { linalg.DefaultWorkers = n }(linalg.DefaultWorkers)
	linalg.DefaultWorkers = 2
	g := lattice.MustNew(4, 4, 4, 8)
	u := gauge.NewRandom(g, 1)
	w := NewWilson(u, 0.1)
	m, err := NewMobius(u, MobiusParams{Ls: 4, M5: 1.3, B5: 1.25, C5: 0.25, M: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := randField(rand.New(rand.NewSource(1)), w.Size()), make([]complex128, w.Size())
	src5, dst5 := randField(rand.New(rand.NewSource(2)), m.Size()), make([]complex128, m.Size())
	for name, apply := range map[string]func(){
		"Apply":              func() { w.Apply(dst, src) },
		"ApplyDagger":        func() { w.ApplyDagger(dst, src) },
		"Mobius.Apply":       func() { m.Apply(dst5, src5) },
		"Mobius.ApplyDagger": func() { m.ApplyDagger(dst5, src5) },
	} {
		if a := testing.AllocsPerRun(10, apply); a != 0 {
			t.Errorf("%s: %v allocations per call", name, a)
		}
	}
}

func TestGamma5IsInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := randField(rng, 10*SpinorLen)
	w := make([]complex128, len(v))
	Gamma5(w, v)
	Gamma5(w, w)
	if d := fieldDist(v, w); d > 0 {
		t.Fatalf("gamma_5^2 != 1: %g", d)
	}
}

func TestWilsonFlopsAccounting(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	w := NewWilson(gauge.NewUnit(g), 0)
	if got := w.Flops(); got != int64(g.Vol)*1320 {
		t.Fatalf("Flops = %d", got)
	}
}
