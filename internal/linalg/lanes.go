package linalg

import "sync/atomic"

// A lane is one goroutine running whole solves - the coarse unit of
// parallelism, a hundred times past the size where waking a goroutine
// costs more than it buys. The process keeps one count of the lanes
// computing right now, so that independent callers (the configurations of
// a pool, the solve workers of a service) share the cores without knowing
// of each other: DefaultWorkers is the budget, and whoever finds a core
// idle may put a helper lane on it.
var activeLanes atomic.Int32

// EnterLane counts the calling goroutine as a computing lane. A caller
// always computes, budget or no budget, so this never fails; it only makes
// the caller visible to everyone else's TryEnterLane. Pair it with
// LeaveLane.
func EnterLane() { activeLanes.Add(1) }

// TryEnterLane claims a lane for a helper goroutine if fewer than
// DefaultWorkers lanes are computing, and reports whether it did. It never
// blocks: a false answer means every core is spoken for and the work stays
// with the caller.
func TryEnterLane() bool {
	for {
		n := activeLanes.Load()
		if int(n) >= DefaultWorkers {
			return false
		}
		if activeLanes.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// LeaveLane returns the lane taken by EnterLane or a successful
// TryEnterLane.
func LeaveLane() { activeLanes.Add(-1) }

// LaneWidth is the split width of the kernels inside one of lanes
// concurrent lanes. A lone lane keeps the configured width (<= 0 being the
// default, as everywhere); concurrent lanes share the cores between them,
// max(1, DefaultWorkers/lanes) each and never wider than configured, so
// that coarse parallelism is spent before fine and the process has no more
// runnable compute goroutines than cores. The width cannot change a bit:
// site loops are independent and reductions sum fixed chunks in order.
func LaneWidth(configured, lanes int) int {
	if lanes <= 1 {
		return configured
	}
	w := max(1, DefaultWorkers/lanes)
	if configured > 0 && configured < w {
		return configured
	}
	return w
}
