package runtime

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The drain path has four triggers - budget expiry, Pool.Drain, the
// external Preempt channel, and the injected fault.Preempt - and a pool
// under a batch system routinely sees two of them land in the same tick
// (the allocation clock runs out just as the SIGTERM notice arrives).
// The contract pinned here: a second *distinct* trigger landing on an
// already-soft drain is a no-op - only a second value on the Preempt
// channel, or grace expiry, escalates to hard-cancel. These tests run
// both orderings under -race; the white-box drainLevel checks catch an
// escalation even if the blocker happens to finish before the cancel.

// drainBlockerPool builds a one-solve-worker pool with the given budget
// and an unbuffered preempt channel, running a blocker task that holds
// the worker until unblock is closed (and reports ctx cancellation -
// i.e. a hard cancel - as its error).
func drainBlockerPool(t *testing.T, budget Budget) (p *Pool, preempt chan string, started, unblock chan struct{}) {
	t.Helper()
	preempt = make(chan string) // unbuffered: a send returns only once the pool has the value
	started = make(chan struct{})
	unblock = make(chan struct{})
	p, err := New(context.Background(), Config{
		SolveWorkers: 1, ContractWorkers: 1,
		Budget:  budget,
		Preempt: preempt,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cost is wildly optimistic so a short WallClock still admits the
	// blocker (it then overruns into the drain, which is the point).
	blocker := Task{ID: 0, Class: Solve, Cost: 0.001, Run: func(ctx context.Context) (interface{}, error) {
		close(started)
		select {
		case <-unblock:
			return "survived", nil
		case <-ctx.Done():
			return nil, ctx.Err() // only a hard cancel lands here
		}
	}}
	if err := p.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if err := p.Submit(sleepTask(i, Solve, time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	<-started
	return p, preempt, started, unblock
}

// drainLevelNow reads the pool's drain phase under the lock.
func drainLevelNow(p *Pool) drainPhase {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drainLevel
}

// waitSoft blocks until the pool has started draining.
func waitSoft(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for drainLevelNow(p) < drainSoft {
		if time.Now().After(deadline) {
			t.Fatal("pool never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBudgetExpiryThenPreemptSignalStaysSoft: the budget expires first,
// then a single preemption notice arrives. The notice is the second
// trigger and must not escalate the soft drain to a hard cancel - the
// in-flight blocker finishes on its own terms.
func TestBudgetExpiryThenPreemptSignalStaysSoft(t *testing.T) {
	p, preempt, _, unblock := drainBlockerPool(t, Budget{
		WallClock: 20 * time.Millisecond, DrainGrace: time.Minute,
	})
	waitSoft(t, p) // budget expiry: trigger one
	preempt <- "SIGTERM"
	// The unbuffered send returned, so the pool has consumed the notice;
	// give its Drain call time to land, then pin the level.
	time.Sleep(20 * time.Millisecond)
	if lvl := drainLevelNow(p); lvl != drainSoft {
		t.Fatalf("drain level %d after second trigger, want soft (%d)", lvl, drainSoft)
	}
	close(unblock)
	results, rep, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkDrainAccounting(t, rep)
	if !rep.Drained || rep.DrainReason != "budget expired" {
		t.Fatalf("drained=%v reason=%q, want budget expiry to keep the first reason", rep.Drained, rep.DrainReason)
	}
	if results[0].Err != nil || results[0].Value != "survived" {
		t.Fatalf("blocker = (%v, %v), want it to finish inside the grace period", results[0].Value, results[0].Err)
	}
	if rep.Stranded != 0 {
		t.Fatalf("stranded %d, want 0: a single preempt notice must not hard-cancel", rep.Stranded)
	}
}

// TestPreemptSignalThenBudgetExpiryStaysSoft: the mirror ordering - the
// preemption notice drains first, then the allocation clock runs out.
// The expiry must not escalate (and must not steal the drain reason).
func TestPreemptSignalThenBudgetExpiryStaysSoft(t *testing.T) {
	p, preempt, _, unblock := drainBlockerPool(t, Budget{
		WallClock: 30 * time.Millisecond, DrainGrace: time.Minute,
	})
	preempt <- "SIGTERM" // trigger one
	waitSoft(t, p)
	// Outlive the budget timer: if expiry re-triggered the drain path it
	// would have landed well within this window.
	time.Sleep(60 * time.Millisecond)
	if lvl := drainLevelNow(p); lvl != drainSoft {
		t.Fatalf("drain level %d after budget expiry, want soft (%d)", lvl, drainSoft)
	}
	close(unblock)
	results, rep, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkDrainAccounting(t, rep)
	if !rep.Drained || rep.DrainReason != "SIGTERM" {
		t.Fatalf("drained=%v reason=%q, want the preempt notice to keep the first reason", rep.Drained, rep.DrainReason)
	}
	if results[0].Err != nil || results[0].Value != "survived" {
		t.Fatalf("blocker = (%v, %v), want it to finish inside the grace period", results[0].Value, results[0].Err)
	}
	if rep.Stranded != 0 {
		t.Fatalf("stranded %d, want 0: budget expiry on a draining pool must not hard-cancel", rep.Stranded)
	}
}

// TestSecondPreemptValueStillEscalates: the intentional escalation path
// is untouched by the double-trigger guard - two values on the Preempt
// channel hard-cancel the blocker even with an undisturbed grace period.
func TestSecondPreemptValueStillEscalates(t *testing.T) {
	p, preempt, _, unblock := drainBlockerPool(t, Budget{DrainGrace: time.Minute})
	defer close(unblock)
	preempt <- "SIGTERM"
	preempt <- "SIGTERM"
	results, rep, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkDrainAccounting(t, rep)
	if !errors.Is(results[0].Err, ErrStranded) {
		t.Fatalf("blocker error %v, want ErrStranded after the second notice", results[0].Err)
	}
	if rep.Stranded != 1 {
		t.Fatalf("stranded %d, want exactly the blocker", rep.Stranded)
	}
}

// TestBudgetExpiringInsideNew: a budget shorter than New itself expires
// while New is still setting the pool up, so the drain it fires reads the
// budget timer as New stores it. The store is under the pool's lock, as
// every read is; under -race this test fails otherwise.
func TestBudgetExpiringInsideNew(t *testing.T) {
	for i := 0; i < 20; i++ {
		p, err := New(context.Background(), Config{
			SolveWorkers: 1, ContractWorkers: 1,
			Budget: Budget{WallClock: time.Nanosecond, DrainGrace: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		waitSoft(t, p)
		p.Close()
		if _, rep, _ := p.Wait(); rep.DrainReason != "budget expired" {
			t.Fatalf("pool %d drained for %q, want the budget's expiry", i, rep.DrainReason)
		}
	}
}
