package linalg

import (
	"runtime"
	"sync/atomic"
)

// A lane is one goroutine running whole solves - the one unit of
// parallelism inside a solve, a hundred times past the size where waking
// a goroutine costs more than it buys. Every kernel pass runs on its
// lane's goroutine. The process keeps one count of the lanes computing
// right now, so that independent callers (the configurations of a pool,
// the solve workers of a service) share the cores without knowing of each
// other: DefaultWorkers is the budget, and whoever finds a core idle may
// put a helper lane on it.
var activeLanes atomic.Int32

// DefaultWorkers is the lane budget: how many lanes may compute at once
// before TryEnterLane refuses. It is GOMAXPROCS at package load.
var DefaultWorkers = runtime.GOMAXPROCS(0)

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
