package linalg

import (
	"sync"
	"testing"
)

func setDefaultWorkers(t *testing.T, n int) {
	t.Helper()
	old := DefaultWorkers
	DefaultWorkers = n
	t.Cleanup(func() { DefaultWorkers = old })
}

// TestLaneBudget: helpers get in only while fewer than DefaultWorkers
// lanes compute, callers always do and count, and under contention exactly
// the budget is handed out.
func TestLaneBudget(t *testing.T) {
	setDefaultWorkers(t, 3)
	EnterLane()
	if !TryEnterLane() || !TryEnterLane() {
		t.Fatal("a helper was refused with the budget open")
	}
	if TryEnterLane() {
		t.Fatal("a fourth lane got in on a budget of three")
	}
	EnterLane() // a caller computes regardless
	LeaveLane()
	if TryEnterLane() {
		t.Fatal("a helper got in while the budget was still spent")
	}
	LeaveLane()
	if !TryEnterLane() {
		t.Fatal("a freed lane was not handed out again")
	}
	for i := 0; i < 3; i++ {
		LeaveLane()
	}

	var got [16]bool
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = TryEnterLane()
		}(i)
	}
	wg.Wait()
	n := 0
	for _, ok := range got {
		if ok {
			n++
			LeaveLane()
		}
	}
	if n != 3 || activeLanes.Load() != 0 {
		t.Fatalf("%d of 16 racing helpers got a lane on a budget of 3; %d still counted", n, activeLanes.Load())
	}
}
