package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used by the parallel kernels when the
// caller passes workers <= 0. It defaults to GOMAXPROCS at package load.
var DefaultWorkers = runtime.GOMAXPROCS(0)

// For splits the half-open range [0, n) into contiguous chunks and invokes
// body(lo, hi) on each chunk from its own goroutine. workers <= 0 selects
// DefaultWorkers. For small n the call degenerates to a single serial
// invocation, so callers never pay goroutine overhead on tiny lattices.
func For(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 256 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		go func(lo, hi int) {
			defer wg.Done()
			if lo < hi {
				body(lo, hi)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ReduceChunk is the fixed reduction chunk size. Reductions accumulate a
// partial sum per ReduceChunk-sized slab of [0, n) and combine the partials
// in slab-index order, so the floating-point summation tree is a function of
// n alone — never of the worker count. This is what keeps Dot/Norm2 (and
// through them whole CGNE solves and the journal's bit-for-bit resume
// guarantee) bitwise identical when the lanes leave a different number of
// workers on a different machine.
const ReduceChunk = 4096

// ReduceFloat64 evaluates body over fixed-size chunks of [0, n) — in
// parallel when workers > 1, serially otherwise — and combines the partial
// sums in chunk-index order. The summation order is identical for every
// worker count, so results are deterministic across machines. All partial
// and final accumulation happens in float64, matching the paper's
// convention that reductions are always performed in double precision.
func ReduceFloat64(n, workers int, body func(lo, hi int) float64) float64 {
	return reduce(n, workers, body)
}

// ReduceComplex128 is ReduceFloat64 for complex partial sums: fixed-size
// chunks combined in chunk-index order, bitwise independent of the worker
// count, with double-precision accumulation throughout.
func ReduceComplex128(n, workers int, body func(lo, hi int) complex128) complex128 {
	return reduce(n, workers, body)
}

func reduce[T float64 | complex128](n, workers int, body func(lo, hi int) T) T {
	nChunks := (n + ReduceChunk - 1) / ReduceChunk
	if workers <= 0 {
		workers = DefaultWorkers
	}
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 {
		return sumChunks(n, body)
	}
	partial := make([]T, nChunks)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(cursor.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo := c * ReduceChunk
				partial[c] = body(lo, min(lo+ReduceChunk, n))
			}
		}()
	}
	wg.Wait()
	var sum T
	for _, p := range partial {
		sum += p
	}
	return sum
}

// sumChunks is the serial reduction: a running sum over the same chunks in
// the same order as the parallel path's partials, so workers=1 is
// bit-identical to workers=N. It does not retain body, so a caller's
// closure stays on its stack and the pass allocates nothing.
func sumChunks[T float64 | complex128](n int, body func(lo, hi int) T) T {
	if n <= ReduceChunk {
		if n <= 0 {
			return 0
		}
		return body(0, n)
	}
	var sum T
	for lo := 0; lo < n; lo += ReduceChunk {
		sum += body(lo, min(lo+ReduceChunk, n))
	}
	return sum
}

// serialCut is the pass length up to which forking does not pay: a
// BLAS-1 pass streams memory, and on a 2-vCPU host the second goroutine's
// wake-up and join cost as much as it saves until the vectors are six
// reduction chunks long. Measured with paired blocks (internal/dirac's
// paired helper) on the CG iteration's five passes - Dot, two Axpy,
// NormSq, Xpay - at GOMAXPROCS 2, two workers against one: 1.29x at
// 6144 elements, 1.21x at 16384, 1.00x at 24576, 0.94x at 49152 and
// 0.83x at 131072. Only the 6144-element point (the two-rank wire
// coordinator's CG vectors) is backed by an end-to-end workload; above
// it the cut rests on that microbenchmark alone, whose 95% intervals do
// not resolve the break-even (0.94-1.28 at 16384, 0.95-1.10 at 24576).
// A chunk of the reductions is still ReduceChunk, so the cut moves no
// bit.
const serialCut = 6 * ReduceChunk

// serialPass reports whether a BLAS-1 or codec pass over n elements runs
// on the calling goroutine alone: one worker, or at most serialCut
// elements. The kernels test it before building the closure For needs, so
// a serial pass allocates nothing.
func serialPass(n, workers int) bool {
	if workers <= 0 {
		workers = DefaultWorkers
	}
	return workers <= 1 || n <= serialCut
}
