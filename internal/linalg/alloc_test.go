package linalg

import (
	"sync"
	"testing"
)

// TestSerialPassDoesNotAllocate: the solver calls these once or more per
// iteration, on its lane's goroutine, so no pass may allocate - no
// closure, no partial-sum slice - at any length.
func TestSerialPassDoesNotAllocate(t *testing.T) {
	for _, n := range []int{ReduceChunk - ReduceChunk%12, 12 * ReduceChunk} {
		x, y, z := make([]complex128, n), make([]complex128, n), make([]complex128, n)
		x32, y32 := make([]complex64, n), make([]complex64, n)
		h := NewHalfVector(n, 12)
		var sinkC complex128
		var sinkF float64
		kernels := map[string]func(){
			"Axpy":             func() { Axpy(1, x, y) },
			"Xpay":             func() { Xpay(x, 1, y) },
			"AxpyZ":            func() { AxpyZ(1, x, y, z) },
			"Dot":              func() { sinkC = Dot(x, y) },
			"NormSq":           func() { sinkF = NormSq(x) },
			"AxpyC64":          func() { AxpyC64(1, x32, y32) },
			"XpayC64":          func() { XpayC64(x32, 1, y32) },
			"DotC64":           func() { sinkC = DotC64(x32, y32) },
			"NormSqC64":        func() { sinkF = NormSqC64(x32) },
			"AxpyNormSqC64":    func() { sinkF = AxpyNormSqC64(1, x32, y32) },
			"EncodeC64":        func() { h.EncodeC64(x32) },
			"DecodeC64":        func() { h.DecodeC64(x32) },
			"HalfRoundTripC64": func() { HalfRoundTripC64(x32, 12) },
		}
		for name, k := range kernels {
			if a := testing.AllocsPerRun(10, k); a != 0 {
				t.Errorf("n=%d %s: %v allocations per call", n, name, a)
			}
		}
		_, _ = sinkC, sinkF
	}
	// The closure forms allocate their closure at the call site and
	// nothing else.
	n := 3*ReduceChunk + 1
	body := func(lo, hi int) float64 { return float64(hi - lo) }
	if a := testing.AllocsPerRun(10, func() { ReduceFloat64(n, body) }); a != 0 {
		t.Errorf("ReduceFloat64 with a prebuilt body: %v allocations per call", a)
	}
	bodyC := func(lo, hi int) complex128 { return complex(float64(hi-lo), 0) }
	if a := testing.AllocsPerRun(10, func() { ReduceComplex128(n, bodyC) }); a != 0 {
		t.Errorf("ReduceComplex128 with a prebuilt body: %v allocations per call", a)
	}
}

// TestConcurrentCallersBitwise: goroutines running passes at the same
// moment - the lanes of a batch do - each get the right answer, with the
// reductions bitwise equal to a lone caller's sum.
func TestConcurrentCallersBitwise(t *testing.T) {
	const n = 20*ReduceChunk + 11
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i%97)+0.25, float64(i%89)-7)
	}
	want := NormSq(x)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]complex128, n)
			for rep := 0; rep < 5; rep++ {
				if got := NormSq(x); got != want {
					t.Errorf("concurrent NormSq = %v, want bitwise %v", got, want)
				}
				Axpy(2, x, y)
			}
			for i := range y {
				if y[i] != 10*x[i] {
					t.Errorf("concurrent Axpy: y[%d] = %v", i, y[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
