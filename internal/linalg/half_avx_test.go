package linalg

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// cpuFlags is the flag set /proc/cpuinfo lists for the first CPU, nil
// where the file cannot be read.
func cpuFlags() map[string]bool {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return nil
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags := map[string]bool{}
			for _, f := range strings.Fields(val) {
				flags[f] = true
			}
			return flags
		}
	}
	return nil
}

// TestProbeSelectsAVXCodec holds the start-up probe to what the kernel
// says of the host: where /proc/cpuinfo lists avx and xsave (Linux lists
// avx only once it saves the YMM state), HasAVX must hold and the build
// must run the AVX half round trip, and the Go body where it does not
// (internal/dirac's TestProbeSelectsAVXHop holds its hop to HasAVX). A
// probe that fell back to Go silently would pass every bit test at half
// the speed.
func TestProbeSelectsAVXCodec(t *testing.T) {
	flags := cpuFlags()
	if runtime.GOOS != "linux" || flags == nil {
		t.Skip("no /proc/cpuinfo to hold the probe to")
	}
	want := flags["avx"] && flags["xsave"]
	if HasAVX != want || (halfAVX != nil) != want {
		t.Fatalf("cpuinfo lists avx+xsave: %v, but HasAVX is %v and the AVX codec selected: %v", want, HasAVX, halfAVX != nil)
	}
}

// codecBlocks are the blocks the AVX round trip is held to the Go body
// on: Gaussian ones over some eighty decades of scale, with ±0, ±Inf, NaN,
// subnormals and ±MaxFloat32 scattered among them; blocks of nothing but
// zeros, of nothing but NaNs, and of zeros and NaNs; and blocks whose
// scaled components fall exactly on .5, where rounding half away from zero
// parts from every other rounding.
func codecBlocks(rng *rand.Rand, n int) []complex64 {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	sub := float32(math.Float32frombits(0x007fffff))
	specials := []float32{0, negZero, inf, -inf, nan, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		sub, -sub, math.MaxFloat32, -math.MaxFloat32}
	v := make([]complex64, n*halfVecBlock)
	for b := 0; b < n; b++ {
		blk := v[b*halfVecBlock:][:halfVecBlock]
		parts := make([]float32, 2*halfVecBlock)
		switch kind := b % 10; {
		case kind == 0 && b%40 == 0: // all zeros, of either sign
			for i := range parts {
				parts[i] = specials[rng.Intn(2)]
			}
		case kind == 0 && b%40 == 10: // all NaN
			for i := range parts {
				parts[i] = nan
			}
		case kind == 0 && b%40 == 20: // zeros and NaNs
			for i := range parts {
				parts[i] = specials[[]int{0, 1, 4}[rng.Intn(3)]]
			}
		case kind == 1: // ties: m = halfMax*2^e makes q = 2^-e exact
			e := rng.Intn(60) - 30
			for i := range parts {
				k := float64(rng.Intn(2*halfMax-1) - (halfMax - 1))
				parts[i] = float32(math.Ldexp(k+math.Copysign(0.5, k), e))
			}
			parts[rng.Intn(len(parts))] = float32(math.Ldexp(halfMax*float64(1-2*rng.Intn(2)), e))
		default:
			scale := math.Exp(20 * rng.NormFloat64())
			for i := range parts {
				parts[i] = float32(scale * rng.NormFloat64())
				if rng.Intn(8) == 0 {
					parts[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
		for i := range blk {
			blk[i] = complex(parts[2*i], parts[2*i+1])
		}
	}
	return v
}

func sameBitsC64(a, b complex64) bool {
	return math.Float32bits(real(a)) == math.Float32bits(real(b)) &&
		math.Float32bits(imag(a)) == math.Float32bits(imag(b))
}

// TestHalfRoundTripAVXMatchesGoBitForBit holds the AVX round trip to the
// Go body, every bit of every component NaNs included, on 20000 blocks
// one at a time and all at once, and its finite flag to the verdict of
// NormSqC64, which the solver's NaN guard read before the flag replaced
// it. HalfRoundTripC64 then has to give the same flag on a whole vector.
func TestHalfRoundTripAVXMatchesGoBitForBit(t *testing.T) {
	if halfAVX == nil {
		t.Skip("the host runs the Go body")
	}
	const n = 20000
	v := codecBlocks(rand.New(rand.NewSource(29)), n)
	want := slices.Clone(v)
	halfRoundTripC64(want, halfVecBlock)
	allFinite := true
	for b := 0; b < n; b++ {
		in := v[b*halfVecBlock:][:halfVecBlock]
		nf := NormSqC64(in)
		finite := !math.IsNaN(nf) && !math.IsInf(nf, 0)
		allFinite = allFinite && finite
		got := slices.Clone(in)
		if ok := halfAVX(&got[0], 1); ok != finite {
			t.Fatalf("block %d %v: AVX finite flag %v, NormSqC64 %v", b, in, ok, nf)
		}
		if ok := halfRoundTripC64(slices.Clone(in), halfVecBlock); ok != finite {
			t.Fatalf("block %d %v: Go finite flag %v, NormSqC64 %v", b, in, ok, nf)
		}
		for i := range got {
			if w := want[b*halfVecBlock+i]; !sameBitsC64(got[i], w) {
				t.Fatalf("block %d %v: component %d is %v (%#x, %#x), Go body has %v (%#x, %#x)", b, in, i,
					got[i], math.Float32bits(real(got[i])), math.Float32bits(imag(got[i])),
					w, math.Float32bits(real(w)), math.Float32bits(imag(w)))
			}
		}
	}
	if allFinite {
		t.Fatal("the blocks carry no non-finite component")
	}
	got := slices.Clone(v)
	if ok := halfAVX(&got[0], n); ok != allFinite {
		t.Fatalf("AVX finite flag over all blocks %v, want %v", ok, allFinite)
	}
	for i := range got {
		if !sameBitsC64(got[i], want[i]) {
			t.Fatalf("all blocks at once: element %d is %v, Go body has %v", i, got[i], want[i])
		}
	}
	// A finite vector of many blocks, then the same with one NaN.
	fin := make([]complex64, 4096*halfVecBlock)
	for i := range fin {
		fin[i] = complex(float32(i%97)-48, float32(i%89)*0.25)
	}
	for _, poison := range []bool{false, true} {
		if poison {
			fin[len(fin)-5] = complex(0, float32(math.NaN()))
		}
		if ok := HalfRoundTripC64(slices.Clone(fin), halfVecBlock); ok == poison {
			t.Fatalf("NaN %v: finite flag %v", poison, ok)
		}
	}
}

// BenchmarkHalfRoundTripC64 times the round trip of one fh-* parity
// vector (3072 spinor components) on one goroutine, by the body the build
// selects and by the Go body.
func BenchmarkHalfRoundTripC64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := make([]complex64, 256*halfVecBlock)
	for i := range v {
		v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	work := slices.Clone(v)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"build", func() { HalfRoundTripC64(work, halfVecBlock) }},
		{"go", func() { halfRoundTripC64(work, halfVecBlock) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				copy(work, v)
				c.run()
			}
		})
	}
}
