package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentityIsNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := RandomSU3(rng)
	id := IdentitySU3()
	if u.Mul(id).DistFrom(u) > 1e-14 || id.Mul(u).DistFrom(u) > 1e-14 {
		t.Fatal("identity is not neutral under Mul")
	}
}

func TestRandomSU3IsUnitaryWithUnitDet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		u := RandomSU3(rng)
		if e := u.UnitarityError(); e > 1e-12 {
			t.Fatalf("unitarity error %g", e)
		}
		if d := det(u); cmplx.Abs(d-1) > 1e-12 {
			t.Fatalf("det = %v", d)
		}
	}
}

func TestSU3GroupClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandomSU3(rng)
		b := RandomSU3(rng)
		c := a.Mul(b)
		return c.UnitarityError() < 1e-11 && cmplx.Abs(det(c)-1) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjIsInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		u := RandomSU3(rng)
		if u.Mul(u.Adj()).DistFrom(IdentitySU3()) > 1e-12 {
			t.Fatal("u u^dag != 1")
		}
		if u.Adj().Mul(u).DistFrom(IdentitySU3()) > 1e-12 {
			t.Fatal("u^dag u != 1")
		}
	}
}

func TestMulVecPreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	u := RandomSU3(rng)
	v := [3]complex128{1, 2i, -1 - 1i}
	var w [3]complex128
	for i := range w {
		w[i] = u[i][0]*v[0] + u[i][1]*v[1] + u[i][2]*v[2]
	}
	nv, nw := 0.0, 0.0
	for i := 0; i < 3; i++ {
		nv += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
		nw += real(w[i])*real(w[i]) + imag(w[i])*imag(w[i])
	}
	if math.Abs(nv-nw) > 1e-12*nv {
		t.Fatalf("norm changed: %v -> %v", nv, nw)
	}
}

func TestReunitarizeRepairsPerturbedMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := RandomSU3(rng)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			u[i][j] += complex(1e-4*rng.NormFloat64(), 1e-4*rng.NormFloat64())
		}
	}
	r := u.Reunitarize()
	if e := r.UnitarityError(); e > 1e-12 {
		t.Fatalf("reunitarize left error %g", e)
	}
	if cmplx.Abs(det(r)-1) > 1e-12 {
		t.Fatalf("det after reunitarize = %v", det(r))
	}
	if r.DistFrom(u) > 1e-2 {
		t.Fatalf("reunitarize moved matrix too far: %g", r.DistFrom(u))
	}
}

func TestRandomSU3NearStaysNearIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		u := RandomSU3Near(rng, 0.05)
		if e := u.UnitarityError(); e > 1e-12 {
			t.Fatalf("unitarity error %g", e)
		}
		if d := u.DistFrom(IdentitySU3()); d > 0.8 {
			t.Fatalf("eps=0.05 update too far from identity: %g", d)
		}
	}
}

func TestTraceOfIdentityAndLinearity(t *testing.T) {
	if tr := IdentitySU3().Trace(); tr != 3 {
		t.Fatalf("tr(1) = %v", tr)
	}
	rng := rand.New(rand.NewSource(9))
	a := RandomSU3(rng)
	b := RandomSU3(rng)
	lhs := a.Add(b).Trace()
	rhs := a.Trace() + b.Trace()
	if cmplx.Abs(lhs-rhs) > 1e-13 {
		t.Fatalf("trace not linear: %v vs %v", lhs, rhs)
	}
}

func TestTraceCyclicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandomSU3(rng)
		b := RandomSU3(rng)
		return cmplx.Abs(a.Mul(b).Trace()-b.Mul(a).Trace()) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleSU3AndDetScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	u := RandomSU3(rng)
	s := complex(2, 0)
	// det(s*U) = s^3 det(U).
	want := s * s * s * det(u)
	if got := det(u.ScaleSU3(s)); cmplx.Abs(got-want) > 1e-11 {
		t.Fatalf("det scaling: %v vs %v", got, want)
	}
}

// det returns det(a).
func det(a SU3) complex128 {
	return a[0][0]*(a[1][1]*a[2][2]-a[1][2]*a[2][1]) -
		a[0][1]*(a[1][0]*a[2][2]-a[1][2]*a[2][0]) +
		a[0][2]*(a[1][0]*a[2][1]-a[1][1]*a[2][0])
}
