package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randVec64 is randVec in single precision, the codec's input.
func randVec64(rng *rand.Rand, n int) []complex64 {
	v := make([]complex64, n)
	Demote(v, randVec(rng, n))
	return v
}

func TestHalfRoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, block := 24*64, 24
	v := randVec64(rng, n)
	h := NewHalfVector(n, block)
	h.EncodeC64(v)
	d := make([]complex64, n)
	h.DecodeC64(d)
	for b := 0; b < n/block; b++ {
		blk := v[b*block : (b+1)*block]
		m := float64(maxAbsC64(blk))
		for i, c := range blk {
			got := d[b*block+i]
			// Componentwise absolute error bounded by half a quantum of
			// the block scale (plus float32 scale rounding).
			bound := m*(0.5/halfMax)*1.01 + 1e-7*m
			if e := math.Abs(float64(real(c) - real(got))); e > bound {
				t.Fatalf("block %d elem %d re err %g > %g", b, i, e, bound)
			}
			if e := math.Abs(float64(imag(c) - imag(got))); e > bound {
				t.Fatalf("block %d elem %d im err %g > %g", b, i, e, bound)
			}
		}
	}
}

func TestHalfZeroBlockIsExact(t *testing.T) {
	n, block := 48, 24
	v := make([]complex64, n)
	for i := block; i < n; i++ {
		v[i] = complex(float32(i), -1)
	}
	h := NewHalfVector(n, block)
	h.EncodeC64(v)
	d := make([]complex64, n)
	h.DecodeC64(d)
	for i := 0; i < block; i++ {
		if d[i] != 0 {
			t.Fatalf("zero block decoded non-zero at %d: %v", i, d[i])
		}
	}
}

func TestHalfMaxMagnitudeSaturatesRange(t *testing.T) {
	// The block maximum must map to +-32767 exactly, so the full int16
	// range is used (this is what makes fixed-point beat fp16 here).
	v := []complex64{complex(2.5, 0), complex(-1.25, 0.5)}
	h := NewHalfVector(2, 2)
	h.EncodeC64(v)
	if h.Data[0] != halfMax {
		t.Fatalf("max component quantized to %d, want %d", h.Data[0], halfMax)
	}
}

func TestHalfRelativeVectorErrorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, block := 24*8, 24
		v := randVec64(rng, n)
		h := NewHalfVector(n, block)
		h.EncodeC64(v)
		d := make([]complex64, n)
		h.DecodeC64(d)
		num, den := 0.0, 0.0
		for i := range v {
			e := complex128(v[i] - d[i])
			num += real(e)*real(e) + imag(e)*imag(e)
			den += float64(real(v[i])*real(v[i]) + imag(v[i])*imag(v[i]))
		}
		// Relative L2 error far below what a reliable update must absorb.
		return math.Sqrt(num/den) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHalfBytesAccounting(t *testing.T) {
	h := NewHalfVector(240, 24)
	// 240 complex = 480 int16 = 960 bytes, + 10 scales * 4 = 40 bytes.
	if got := h.Bytes(); got != 1000 {
		t.Fatalf("Bytes = %d, want 1000", got)
	}
	if h.Len() != 240 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestHalfRejectsBadBlockSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n not multiple of block")
		}
	}()
	NewHalfVector(25, 24)
}

// TestRoundHalfAwayIsMathRound holds the codec's rounding to the
// math.Round it replaced wherever the two could part: every half-integer
// of the int16 range and its float64 neighbours on both sides, the range
// edges, and a million seeded values.
func TestRoundHalfAwayIsMathRound(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := roundHalfAway(x), int32(math.Round(x)); got != want {
			t.Fatalf("roundHalfAway(%v) = %d, math.Round gives %d", x, got, want)
		}
	}
	for k := 0; k <= halfMax; k++ {
		for _, h := range []float64{float64(k), float64(k) + 0.5} {
			for _, x := range []float64{h, math.Nextafter(h, math.Inf(1)), math.Nextafter(h, math.Inf(-1))} {
				check(x)
				check(-x)
			}
		}
	}
	for _, x := range []float64{0.49999999999999994, halfMax + 0.49999999999999, math.Copysign(0, -1), 5e-324} {
		check(x)
		check(-x)
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 1000000; i++ {
		check((2*rng.Float64() - 1) * (halfMax + 0.5))
	}
}

// TestHalfRoundTripC64IsEncodeDecode holds the in-place round trip to the
// stored form it skips, bit for bit, on ordinary blocks and on the ones
// with a special case in the codec: zeros of either sign, a lone NaN, a
// block of nothing but NaNs, an infinity, and values at the float32 edges.
func TestHalfRoundTripC64IsEncodeDecode(t *testing.T) {
	const block = 12
	rng := rand.New(rand.NewSource(3))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	blocks := [][]complex64{
		make([]complex64, block),
		{complex(float32(math.Copysign(0, -1)), 0), complex(0, float32(math.Copysign(0, -1)))},
		{complex(nan, 1), complex(0.25, -0.75)},
		{complex(nan, nan), complex(nan, nan)},
		{complex(inf, 1), complex(-2, 3)},
		{complex(-inf, nan), 0},
		{complex(math.MaxFloat32, -math.MaxFloat32), complex(1, math.SmallestNonzeroFloat32)},
		{complex(math.SmallestNonzeroFloat32, 0), complex(0, -math.SmallestNonzeroFloat32)},
	}
	for len(blocks) < 8+serialCut/block { // past serialPass's cut, so workers > 1 splits
		blk := make([]complex64, block)
		scale := float32(math.Exp(20 * rng.NormFloat64()))
		for i := range blk {
			blk[i] = complex(scale*float32(rng.NormFloat64()), scale*float32(rng.NormFloat64()))
		}
		blocks = append(blocks, blk)
	}
	var v []complex64
	for _, blk := range blocks {
		v = append(v, append(blk, make([]complex64, block-len(blk))...)...)
	}
	want := append([]complex64(nil), v...)
	h := NewHalfVector(len(v), block)
	h.EncodeC64(want)
	h.DecodeC64(want)
	for _, workers := range []int{1, 3} {
		got := append([]complex64(nil), v...)
		HalfRoundTripC64(got, block, workers)
		for i := range want {
			if math.Float32bits(real(got[i])) != math.Float32bits(real(want[i])) ||
				math.Float32bits(imag(got[i])) != math.Float32bits(imag(want[i])) {
				t.Fatalf("workers %d: element %d of block %d is %v in place, %v through the stored form (from %v)",
					workers, i%block, i/block, got[i], want[i], v[i])
			}
		}
	}
}
