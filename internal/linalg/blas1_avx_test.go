package linalg

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// blasSpecials are the components the complex64 bodies are held to their
// Go loops on besides Gaussian ones: signed zeros, infinities, a NaN,
// subnormals of both signs and the extremes of the format.
var blasSpecials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff),
	-math.Float32frombits(0x007fffff), math.MaxFloat32, -math.MaxFloat32,
}

// blasVec is n complex64 elements: Gaussian over a few decades of scale,
// with one component in special of them taken from blasSpecials.
func blasVec(rng *rand.Rand, n, special int) []complex64 {
	part := func() float32 {
		if special > 0 && rng.Intn(special) == 0 {
			return blasSpecials[rng.Intn(len(blasSpecials))]
		}
		return float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
	}
	v := make([]complex64, n)
	for i := range v {
		v[i] = complex(part(), part())
	}
	return v
}

// The bodies are held to the Go loops bit for bit, except that a NaN
// matches any NaN: of two NaN operands x86 returns the first, and the
// operand order gc gives a commutative add is not fixed - building with
// -race changes it - so the Go loops themselves carry no fixed payload.

func sameBits64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func sameBits32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

func sameBits128(a, b complex128) bool {
	return sameBits64(real(a), real(b)) && sameBits64(imag(a), imag(b))
}

func sameElem(a, b complex64) bool {
	return sameBits32(real(a), real(b)) && sameBits32(imag(a), imag(b))
}

// blasScalars are the a the update bodies are run with: a step length as
// the solver makes it, its negation (imaginary part -0), a general complex
// scalar, and scalars with a zero, an infinite and a NaN part.
func blasScalars() []complex64 {
	a := complex(float32(0.734), 0)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	return []complex64{a, -a, complex(-1.25, 0.5), complex(0, -3), complex(inf, 0), complex(1, nan)}
}

// TestBLAS1C64AVXMatchesGoBitForBit holds each AVX body of blas1_amd64.s
// to its Go loop, every bit of every element and of every sum, a NaN
// matching any NaN, on every length from 0 through ReduceChunk+9: tails of every
// residue modulo the vector width, and the bodies' whole-slab calls. The
// exported passes then run over 2 to 3 slabs against sumChunks of the Go
// loops, and the fused pass against the Go loops of AxpyC64 followed by
// NormSqC64.
func TestBLAS1C64AVXMatchesGoBitForBit(t *testing.T) {
	if !HasAVX {
		t.Skip("the host runs the Go loops")
	}
	rng := rand.New(rand.NewSource(40))
	const maxN = ReduceChunk + 9
	for _, special := range []int{0, 7} {
		xs, ys := blasVec(rng, maxN+3, special), blasVec(rng, maxN+3, special)
		for n := 0; n <= maxN; n++ {
			// Start n's slices at an offset of n mod 3 elements, so the
			// bodies also read and write at every 8-byte alignment.
			off := n % 3
			x, y := xs[off:off+n], ys[off:off+n]
			if got, want := dotC64Body(x, y), dotC64(x, y); !sameBits128(got, want) {
				t.Fatalf("special %d, n=%d: dot %v, Go loop %v", special, n, got, want)
			}
			if got, want := normSqC64Body(y), normSqC64(y); !sameBits64(got, want) {
				t.Fatalf("special %d, n=%d: norm %v, Go loop %v", special, n, got, want)
			}
			a := blasScalars()[n%len(blasScalars())]
			for _, c := range []struct {
				name      string
				body, ref func(y []complex64) float64
			}{
				{"axpy", func(y []complex64) float64 { axpyC64Body(a, x, y); return 0 }, func(y []complex64) float64 { axpyC64(a, x, y); return 0 }},
				{"xpay", func(y []complex64) float64 { xpayC64Body(x, a, y); return 0 }, func(y []complex64) float64 { xpayC64(x, a, y); return 0 }},
				{"axpy+norm", func(y []complex64) float64 { return axpyNormSqC64Body(a, x, y) }, func(y []complex64) float64 { return axpyNormSqC64(a, x, y) }},
			} {
				got, want := slices.Clone(y), slices.Clone(y)
				if s, w := c.body(got), c.ref(want); !sameBits64(s, w) {
					t.Fatalf("special %d, n=%d, a=%v: %s sum %v, Go loop %v", special, n, a, c.name, s, w)
				}
				for i := range got {
					if !sameElem(got[i], want[i]) {
						t.Fatalf("special %d, n=%d, a=%v: %s element %d is %v (%#x %#x), Go loop %v (%#x %#x); x %v y %v", special, n, a, c.name, i, got[i], math.Float32bits(real(got[i])), math.Float32bits(imag(got[i])), want[i], math.Float32bits(real(want[i])), math.Float32bits(imag(want[i])), x[i], y[i])
					}
				}
			}
		}
	}
	for _, n := range []int{2*ReduceChunk + 5, 3 * ReduceChunk} {
		x, y := blasVec(rng, n, 11), blasVec(rng, n, 11)
		wantDot := sumChunks(n, func(lo, hi int) complex128 { return dotC64(x[lo:hi], y[lo:hi]) })
		wantNorm := sumChunks(n, func(lo, hi int) float64 { return normSqC64(y[lo:hi]) })
		if got := DotC64(x, y); !sameBits128(got, wantDot) {
			t.Fatalf("n=%d: DotC64 %v, chunked Go loop %v", n, got, wantDot)
		}
		if got := NormSqC64(y); !sameBits64(got, wantNorm) {
			t.Fatalf("n=%d: NormSqC64 %v, chunked Go loop %v", n, got, wantNorm)
		}
		a := complex(float32(-0.3125), float32(math.Copysign(0, -1)))
		fused, split := slices.Clone(y), slices.Clone(y)
		got := AxpyNormSqC64(a, x, fused)
		axpyC64(a, x, split)
		want := sumChunks(n, func(lo, hi int) float64 { return normSqC64(split[lo:hi]) })
		if !sameBits64(got, want) {
			t.Fatalf("n=%d: AxpyNormSqC64 %v, AxpyC64 then NormSqC64 %v", n, got, want)
		}
		for i := range fused {
			if !sameElem(fused[i], split[i]) {
				t.Fatalf("n=%d: AxpyNormSqC64 element %d is %v, AxpyC64 %v", n, i, fused[i], split[i])
			}
		}
	}
}

// TestProbeSelectsAVXBLAS1 holds the complex64 passes to the probe, which
// TestProbeSelectsAVXCodec holds to the host: the AVX bodies run exactly
// where HasAVX does. A body and its Go loop differ in nothing a caller
// can see, so the selection is read from the function values.
func TestProbeSelectsAVXBLAS1(t *testing.T) {
	pc := func(f any) uintptr { return reflect.ValueOf(f).Pointer() }
	for i, c := range []struct{ body, loop any }{
		{axpyC64Body, axpyC64}, {xpayC64Body, xpayC64}, {dotC64Body, dotC64},
		{normSqC64Body, normSqC64}, {axpyNormSqC64Body, axpyNormSqC64},
	} {
		if isGo := pc(c.body) == pc(c.loop); isGo == HasAVX {
			t.Errorf("pass %d: HasAVX %v, but the Go loop selected: %v", i, HasAVX, isGo)
		}
	}
}
