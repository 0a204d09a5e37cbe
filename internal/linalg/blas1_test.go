package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func TestAxpyMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 255, 256, 4096} {
		x := randVec(rng, n)
		y := randVec(rng, n)
		want := make([]complex128, n)
		a := complex(0.7, -1.3)
		for i := range want {
			want[i] = y[i] + a*x[i]
		}
		got := append([]complex128(nil), y...)
		Axpy(a, x, got)
		for i := range want {
			if cmplx.Abs(want[i]-got[i]) > 1e-13 {
				t.Fatalf("n=%d i=%d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestXpayMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 1024
	x := randVec(rng, n)
	y := randVec(rng, n)
	a := complex(-0.25, 0.5)
	want := make([]complex128, n)
	for i := range want {
		want[i] = x[i] + a*y[i]
	}
	got := append([]complex128(nil), y...)
	Xpay(x, a, got)
	for i := range want {
		if cmplx.Abs(want[i]-got[i]) > 1e-13 {
			t.Fatalf("i=%d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestAxpyZDoesNotClobberInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 512
	x := randVec(rng, n)
	y := randVec(rng, n)
	xc := append([]complex128(nil), x...)
	yc := append([]complex128(nil), y...)
	z := make([]complex128, n)
	AxpyZ(2i, x, y, z)
	for i := range x {
		if x[i] != xc[i] || y[i] != yc[i] {
			t.Fatalf("inputs modified at %d", i)
		}
		if cmplx.Abs(z[i]-(2i*x[i]+y[i])) > 1e-13 {
			t.Fatalf("z wrong at %d", i)
		}
	}
}

func TestDotConjugatesFirstArgument(t *testing.T) {
	x := []complex128{1i}
	y := []complex128{1i}
	// <i, i> = conj(i)*i = 1.
	if d := Dot(x, y); cmplx.Abs(d-1) > 1e-15 {
		t.Fatalf("Dot = %v, want 1", d)
	}
}

func TestDotHermitianSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randVec(rng, 777)
	y := randVec(rng, 777)
	d1 := Dot(x, y)
	d2 := Dot(y, x)
	if cmplx.Abs(d1-cmplx.Conj(d2)) > 1e-10 {
		t.Fatalf("<x,y> = %v but conj(<y,x>) = %v", d1, cmplx.Conj(d2))
	}
}

func TestNormSqAgreesWithDot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := randVec(rng, 1000)
	ns := NormSq(v)
	d := Dot(v, v)
	if math.Abs(ns-real(d)) > 1e-9*ns || math.Abs(imag(d)) > 1e-9*ns {
		t.Fatalf("NormSq = %v, <v,v> = %v", ns, d)
	}
}

func TestReduceHandlesEmptyAndTinyRanges(t *testing.T) {
	if got := ReduceFloat64(0, func(lo, hi int) float64 { return 1 }); got != 0 {
		t.Fatalf("empty range sum = %v", got)
	}
	got := ReduceFloat64(3, func(lo, hi int) float64 { return float64(hi - lo) })
	if got != 3 {
		t.Fatalf("tiny range sum = %v, want 3", got)
	}
}

func TestPromoteDemoteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v := randVec(rng, 200)
	s := make([]complex64, 200)
	d := make([]complex128, 200)
	Demote(s, v)
	Promote(d, s)
	for i := range v {
		if cmplx.Abs(v[i]-d[i]) > 1e-6*(1+cmplx.Abs(v[i])) {
			t.Fatalf("round trip lost too much at %d: %v vs %v", i, v[i], d[i])
		}
	}
}

func TestDotC64MatchesPromotedDot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 4096
	x64 := make([]complex64, n)
	y64 := make([]complex64, n)
	x := make([]complex128, n)
	y := make([]complex128, n)
	for i := 0; i < n; i++ {
		x64[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		y64[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	Promote(x, x64)
	Promote(y, y64)
	d64 := DotC64(x64, y64)
	d := Dot(x, y)
	if cmplx.Abs(d64-d) > 1e-6*(1+cmplx.Abs(d)) {
		t.Fatalf("DotC64 = %v, Dot = %v", d64, d)
	}
}

func TestDotLinearityProperty(t *testing.T) {
	// <x, a*y + z> = a<x,y> + <x,z> via testing/quick on small vectors.
	f := func(re, im float64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := complex(math.Mod(re, 10), math.Mod(im, 10))
		x := randVec(rng, 64)
		y := randVec(rng, 64)
		z := randVec(rng, 64)
		ay := make([]complex128, 64)
		AxpyZ(a, y, z, ay)
		lhs := Dot(x, ay)
		rhs := a*Dot(x, y) + Dot(x, z)
		return cmplx.Abs(lhs-rhs) < 1e-9*(1+cmplx.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Axpy(1, make([]complex128, 3), make([]complex128, 4))
}
