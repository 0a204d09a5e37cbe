package linalg

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestSerialPassDoesNotAllocate: the solver calls these once or more per
// iteration, so a pass that stays on the calling goroutine - one worker at
// any length, any worker count up to serialCut - must not allocate:
// no closure, no partial-sum slice.
func TestSerialPassDoesNotAllocate(t *testing.T) {
	for _, c := range []struct{ n, workers int }{
		{serialCut - serialCut%12, 0}, // under the cut at any worker count
		{3*ReduceChunk + 1, 1},        // several reduction chunks, one worker
	} {
		n, w := c.n, c.workers
		x, y, z := make([]complex128, n), make([]complex128, n), make([]complex128, n)
		x32, y32 := make([]complex64, n), make([]complex64, n)
		var sinkC complex128
		var sinkF float64
		kernels := map[string]func(){
			"Axpy":      func() { Axpy(1, x, y, w) },
			"Xpay":      func() { Xpay(x, 1, y, w) },
			"AxpyZ":     func() { AxpyZ(1, x, y, z, w) },
			"Dot":       func() { sinkC = Dot(x, y, w) },
			"NormSq":    func() { sinkF = NormSq(x, w) },
			"AxpyC64":   func() { AxpyC64(1, x32, y32, w) },
			"XpayC64":   func() { XpayC64(x32, 1, y32, w) },
			"DotC64":    func() { sinkC = DotC64(x32, y32, w) },
			"NormSqC64": func() { sinkF = NormSqC64(x32, w) },
		}
		if w == 0 { // the codec always runs at DefaultWorkers
			h := NewHalfVector(n, 12)
			kernels["EncodeC64"] = func() { h.EncodeC64(x32) }
			kernels["DecodeC64"] = func() { h.DecodeC64(x32) }
		}
		for name, k := range kernels {
			if a := testing.AllocsPerRun(10, k); a != 0 {
				t.Errorf("n=%d workers=%d %s: %v allocations per call", n, w, name, a)
			}
		}
		_, _ = sinkC, sinkF
	}
	// The closure forms allocate their closure at the call site and, with
	// one worker, nothing else.
	n := 3*ReduceChunk + 1
	body := func(lo, hi int) float64 { return float64(hi - lo) }
	if a := testing.AllocsPerRun(10, func() { ReduceFloat64(n, 1, body) }); a != 0 {
		t.Errorf("ReduceFloat64 with a prebuilt body: %v allocations per call", a)
	}
	bodyC := func(lo, hi int) complex128 { return complex(float64(hi-lo), 0) }
	if a := testing.AllocsPerRun(10, func() { ReduceComplex128(n, 1, bodyC) }); a != 0 {
		t.Errorf("ReduceComplex128 with a prebuilt body: %v allocations per call", a)
	}
}

// TestSerialPassMatchesSplitBitwise holds the named-loop serial passes to
// the split ones on both sides of serialPass's cut.
func TestSerialPassMatchesSplitBitwise(t *testing.T) {
	for _, n := range []int{serialCut, serialCut + 1, serialCut + 5*ReduceChunk + 7} {
		x, y := make([]complex128, n), make([]complex128, n)
		x32, y32 := make([]complex64, n), make([]complex64, n)
		for i := range x {
			x[i] = complex(float64(i%97)+0.25, float64(i%89)-7.5)
			y[i] = complex(float64(i%83)-3.125, float64(i%79)+0.5)
			x32[i], y32[i] = complex64(x[i]), complex64(y[i])
		}
		a := complex(0.75, -1.5)
		run := func(w int) ([]complex128, []complex64, [2]complex128, [2]float64) {
			u, z := append([]complex128(nil), y...), make([]complex128, n)
			u32 := append([]complex64(nil), y32...)
			Axpy(a, x, u, w)
			Xpay(x, a, u, w)
			AxpyZ(a, x, u, z, w)
			AxpyC64(complex64(a), x32, u32, w)
			XpayC64(x32, complex64(a), u32, w)
			return z, u32, [2]complex128{Dot(x, z, w), DotC64(x32, u32, w)}, [2]float64{NormSq(z, w), NormSqC64(u32, w)}
		}
		z1, u1, d1, n1 := run(1)
		for _, w := range []int{2, 3, 8} {
			z, u, d, nn := run(w)
			if d != d1 || nn != n1 {
				t.Fatalf("n=%d workers=%d: reductions %v %v, serial %v %v", n, w, d, nn, d1, n1)
			}
			for i := range z {
				if z[i] != z1[i] || u[i] != u1[i] {
					t.Fatalf("n=%d workers=%d: element %d differs from the serial pass", n, w, i)
				}
			}
		}
	}
}

// TestNestedForCoversRangeOnce: a For inside a For body neither deadlocks
// nor loses or repeats an index.
func TestNestedForCoversRangeOnce(t *testing.T) {
	const n = 300
	cells := make([]int32, n*n)
	For(n, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(n, 4, func(l, h int) {
				for j := l; j < h; j++ {
					atomic.AddInt32(&cells[i*n+j], 1)
				}
			})
		}
	})
	for k, c := range cells {
		if c != 1 {
			t.Fatalf("cell %d visited %d times", k, c)
		}
	}
}

// TestConcurrentCallersBitwise: goroutines running split passes at the
// same moment each get the right answer, with the reductions bitwise
// equal to the serial sum.
func TestConcurrentCallersBitwise(t *testing.T) {
	const n = 20*ReduceChunk + 11
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i%97)+0.25, float64(i%89)-7)
	}
	want := NormSq(x, 1)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]complex128, n)
			for rep := 0; rep < 5; rep++ {
				if got := NormSq(x, 0); got != want {
					t.Errorf("concurrent NormSq = %v, want bitwise %v", got, want)
				}
				Axpy(2, x, y, 3)
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
