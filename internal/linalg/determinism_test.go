package linalg

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestReduceChunkBoundaries pins the fixed-chunk walk, the bit contract of
// every reduction: exact multiples, one-off sizes and the single-chunk
// fast path must each cover the range exactly once, and Dot, NormSq,
// DotC64 and NormSqC64 must be, bit for bit, the chunk sums over
// ReduceChunk-sized slabs added in slab order from zero.
func TestReduceChunkBoundaries(t *testing.T) {
	for _, n := range []int{1, ReduceChunk - 1, ReduceChunk, ReduceChunk + 1,
		2 * ReduceChunk, 2*ReduceChunk + 1} {
		got := ReduceFloat64(n, func(lo, hi int) float64 {
			return float64(hi - lo)
		})
		if got != float64(n) {
			t.Fatalf("n=%d: covered %v elements", n, got)
		}
		gotC := ReduceComplex128(n, func(lo, hi int) complex128 {
			return complex(float64(hi-lo), 0)
		})
		if gotC != complex(float64(n), 0) {
			t.Fatalf("n=%d: complex covered %v", n, gotC)
		}
	}

	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{100, ReduceChunk, ReduceChunk + 1, 3*ReduceChunk + 17, 100000} {
		x, y := randVec(rng, n), randVec(rng, n)
		x32, y32 := make([]complex64, n), make([]complex64, n)
		Demote(x32, x)
		Demote(y32, y)
		var dot, dot32 complex128
		var norm, norm32 float64
		for lo := 0; lo < n; lo += ReduceChunk {
			hi := min(lo+ReduceChunk, n)
			var d, d32 complex128
			var s, s32 float64
			for i := lo; i < hi; i++ {
				d += complex(real(x[i]), -imag(x[i])) * y[i]
				s += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
				a, b := complex128(x32[i]), complex128(y32[i])
				d32 += complex(real(a), -imag(a)) * b
				s32 += real(a)*real(a) + imag(a)*imag(a)
			}
			dot, norm, dot32, norm32 = dot+d, norm+s, dot32+d32, norm32+s32
		}
		if got := Dot(x, y); got != dot {
			t.Fatalf("n=%d: Dot = %v, chunk order gives %v", n, got, dot)
		}
		if got := NormSq(x); got != norm {
			t.Fatalf("n=%d: NormSq = %v, chunk order gives %v", n, got, norm)
		}
		if got := DotC64(x32, y32); got != dot32 {
			t.Fatalf("n=%d: DotC64 = %v, chunk order gives %v", n, got, dot32)
		}
		if got := NormSqC64(x32); got != norm32 {
			t.Fatalf("n=%d: NormSqC64 = %v, chunk order gives %v", n, got, norm32)
		}
	}
}

// workerCountsUnderTest are the lane budgets the determinism tests sweep.
// Results must be bitwise identical across all of them: every pass runs
// whole on its lane's goroutine, and the fixed-chunk walk makes the
// summation tree a function of n alone.
func workerCountsUnderTest() []int {
	return []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)}
}

// onWorkers sets the lane budget to w and runs f on w lanes at once, each a
// goroutine that holds its lane for the whole call, the way the lanes of a
// batch run their solves.
func onWorkers(w int, f func()) {
	old := DefaultWorkers
	DefaultWorkers = w
	defer func() { DefaultWorkers = old }()
	var wg sync.WaitGroup
	for l := 0; l < w; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			EnterLane()
			defer LeaveLane()
			f()
		}()
	}
	wg.Wait()
}

func TestDotBitwiseIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{100, ReduceChunk, ReduceChunk + 1, 3*ReduceChunk + 17, 100000} {
		x := randVec(rng, n)
		y := randVec(rng, n)
		ref := Dot(x, y)
		for _, w := range workerCountsUnderTest() {
			onWorkers(w, func() {
				for rep := 0; rep < 3; rep++ {
					if got := Dot(x, y); got != ref {
						t.Errorf("n=%d workers=%d rep=%d: Dot = %v, want bitwise %v",
							n, w, rep, got, ref)
					}
				}
			})
		}
	}
}

func TestNormSqBitwiseIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{257, ReduceChunk + 3, 100000} {
		v := randVec(rng, n)
		ref := NormSq(v)
		for _, w := range workerCountsUnderTest() {
			onWorkers(w, func() {
				for rep := 0; rep < 3; rep++ {
					if got := NormSq(v); got != ref {
						t.Errorf("n=%d workers=%d rep=%d: NormSq = %v, want bitwise %v",
							n, w, rep, got, ref)
					}
				}
			})
		}
	}
}

func TestDotC64BitwiseIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 3*ReduceChunk + 5
	x := make([]complex64, n)
	y := make([]complex64, n)
	for i := 0; i < n; i++ {
		x[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		y[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	refD := DotC64(x, y)
	refN := NormSqC64(x)
	for _, w := range workerCountsUnderTest() {
		onWorkers(w, func() {
			if got := DotC64(x, y); got != refD {
				t.Errorf("workers=%d: DotC64 = %v, want bitwise %v", w, got, refD)
			}
			if got := NormSqC64(x); got != refN {
				t.Errorf("workers=%d: NormSqC64 = %v, want bitwise %v", w, got, refN)
			}
		})
	}
}

// TestParallelReductionDeterministicAcrossWorkerCounts: a long reduction run
// on many lanes at once, under budgets both below and above the lane count,
// agrees bitwise with a lone caller's, not just to rounding.
func TestParallelReductionDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	v := randVec(rng, 100000)
	ref := NormSq(v)
	for _, w := range []int{2, 3, 8, 16} {
		onWorkers(w, func() {
			if got := NormSq(v); got != ref {
				t.Errorf("workers=%d: %v vs %v", w, got, ref)
			}
		})
	}
}
