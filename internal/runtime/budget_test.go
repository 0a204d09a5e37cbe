package runtime

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"femtoverse/internal/fault"
)

// checkDrainAccounting verifies the drain counters partition the task
// set: every task is exactly one of succeeded, failed, refused, or
// stranded.
func checkDrainAccounting(t *testing.T, rep Report) {
	t.Helper()
	if got := rep.Succeeded + rep.Failed + rep.Refused + rep.Stranded; got != rep.Tasks {
		t.Fatalf("accounting: %d+%d+%d+%d = %d tasks, want %d",
			rep.Succeeded, rep.Failed, rep.Refused, rep.Stranded, got, rep.Tasks)
	}
}

// TestBudgetRefusesOversizedTask is the admission-control liveness
// property: a task whose estimate always exceeds the remaining budget is
// reported as refused - never silently stranded in the queue, never
// counted as failed - and its dependents are refused with it, while
// work that fits proceeds normally.
func TestBudgetRefusesOversizedTask(t *testing.T) {
	var tasks []Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, sleepTask(i, Solve, 5*time.Millisecond))
	}
	monster := sleepTask(4, Solve, 10*time.Second) // estimate 10s >> 1s budget
	tasks = append(tasks, monster)
	tasks = append(tasks, sleepTask(5, Contract, time.Millisecond, 4)) // dependent of the monster

	results, rep, err := Run(context.Background(), Config{
		SolveWorkers: 2, ContractWorkers: 1,
		Budget: Budget{WallClock: time.Second, DrainGrace: 100 * time.Millisecond},
	}, tasks)
	if err != nil {
		t.Fatalf("refused work surfaced as an error: %v", err)
	}
	checkDrainAccounting(t, rep)
	if rep.Succeeded != 4 || rep.Refused != 2 || rep.Failed != 0 || rep.Stranded != 0 {
		t.Fatalf("counters: %d ok, %d refused, %d failed, %d stranded", rep.Succeeded, rep.Refused, rep.Failed, rep.Stranded)
	}
	if !errors.Is(results[4].Err, ErrRefused) {
		t.Fatalf("monster error %v, want ErrRefused", results[4].Err)
	}
	if !errors.Is(results[5].Err, ErrRefused) {
		t.Fatalf("dependent of refused task: %v, want ErrRefused", results[5].Err)
	}
	if rep.Admitted != 4 {
		t.Fatalf("admitted %d, want 4", rep.Admitted)
	}
	if rep.BudgetWall != time.Second || rep.BudgetUtil <= 0 {
		t.Fatalf("budget accounting missing: wall %v util %g", rep.BudgetWall, rep.BudgetUtil)
	}
}

// TestBudgetExpiryStrandsOverrunningWork: tasks admitted on optimistic
// estimates that are still running when the budget expires get the
// drain grace, then are hard-cancelled and recorded as stranded - not
// failed - and Wait does not surface them as an error.
func TestBudgetExpiryStrandsOverrunningWork(t *testing.T) {
	var tasks []Task
	for i := 0; i < 2; i++ {
		t := sleepTask(i, Solve, 2*time.Second)
		t.Cost = 0.001 // wildly optimistic: admitted, then overruns
		tasks = append(tasks, t)
	}
	results, rep, err := Run(context.Background(), Config{
		SolveWorkers: 2, ContractWorkers: 1,
		Budget: Budget{WallClock: 30 * time.Millisecond, DrainGrace: 30 * time.Millisecond},
	}, tasks)
	if err != nil {
		t.Fatalf("stranded work surfaced as an error: %v", err)
	}
	checkDrainAccounting(t, rep)
	if !rep.Drained || rep.DrainReason != "budget expired" {
		t.Fatalf("drained=%v reason=%q, want budget expiry", rep.Drained, rep.DrainReason)
	}
	if rep.Stranded != 2 {
		t.Fatalf("stranded %d, want 2 (report: %v)", rep.Stranded, rep)
	}
	for _, r := range results {
		if !errors.Is(r.Err, ErrStranded) {
			t.Fatalf("task %d error %v, want ErrStranded", r.Task.ID, r.Err)
		}
	}
}

// TestPreemptFaultFiresDrainPath: an injected fault.Preempt is an
// allocation-level event, not a task failure - the drawing attempt runs
// to completion inside the grace period, the pool drains, queued tasks
// are refused, and the fault is tallied.
func TestPreemptFaultFiresDrainPath(t *testing.T) {
	const n = 8
	var tasks []Task
	for i := 0; i < n; i++ {
		tasks = append(tasks, sleepTask(i, Solve, 5*time.Millisecond))
	}
	results, rep, err := Run(context.Background(), Config{
		SolveWorkers: 2, ContractWorkers: 1,
		Budget: Budget{DrainGrace: 500 * time.Millisecond},
		Fault:  fault.Plan{Seed: 7, Preempt: 0.9, MaxInjections: 1},
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	checkDrainAccounting(t, rep)
	if !rep.Drained || rep.DrainReason != "preempt fault" {
		t.Fatalf("drained=%v reason=%q, want preempt fault", rep.Drained, rep.DrainReason)
	}
	if rep.Faults.Preempt == 0 {
		t.Fatal("no Preempt fault tallied")
	}
	if rep.Stranded != 0 {
		t.Fatalf("stranded %d: the grace period should cover 5ms sleeps", rep.Stranded)
	}
	if rep.Refused == 0 || rep.Succeeded == 0 {
		t.Fatalf("want a mix of refused and completed work, got %d refused %d ok", rep.Refused, rep.Succeeded)
	}
	// The drawing attempt itself completed: every non-refused task
	// returned its value.
	for _, r := range results {
		if r.Err == nil && r.Value != r.Task.ID {
			t.Fatalf("task %d value %v", r.Task.ID, r.Value)
		}
		if errors.Is(r.Err, ErrRefused) && len(r.Metrics.Workers) != 0 {
			t.Fatalf("refused task %d has workers %v", r.Task.ID, r.Metrics.Workers)
		}
	}
}

// TestPreemptChannelTwoStageShutdown: the external preemption channel is
// the SIGTERM landing path - the first notice drains gracefully
// (in-flight work keeps running), the second hard-cancels immediately.
func TestPreemptChannelTwoStageShutdown(t *testing.T) {
	preempt := make(chan string, 2)
	started := make(chan struct{})
	p, err := New(context.Background(), Config{
		SolveWorkers: 1, ContractWorkers: 1,
		Budget:  Budget{DrainGrace: time.Minute}, // grace never expires on its own
		Preempt: preempt,
	})
	if err != nil {
		t.Fatal(err)
	}
	blocker := Task{ID: 0, Class: Solve, Run: func(ctx context.Context) (interface{}, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
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
	preempt <- "SIGTERM" // graceful: queued work refused, blocker keeps running
	preempt <- "SIGTERM" // immediate: the blocker's context is cancelled
	results, rep, err := p.Wait()
	if err != nil {
		t.Fatalf("preempted run surfaced an error: %v", err)
	}
	checkDrainAccounting(t, rep)
	if !rep.Drained || rep.DrainReason != "SIGTERM" {
		t.Fatalf("drained=%v reason=%q, want SIGTERM", rep.Drained, rep.DrainReason)
	}
	if !errors.Is(results[0].Err, ErrStranded) {
		t.Fatalf("blocker error %v, want ErrStranded (hard cancel)", results[0].Err)
	}
	if rep.Refused != 3 || rep.Stranded != 1 {
		t.Fatalf("refused %d stranded %d, want 3 refused + 1 stranded", rep.Refused, rep.Stranded)
	}
}

// TestEstimatorCalibration: the estimator seeds from nominal costs and
// converges to the observed ratio via the EWMA; predictions before any
// observation are the nominal cost verbatim.
func TestEstimatorCalibration(t *testing.T) {
	var e estimator
	if got := e.predict(Solve, 2); got != 2*time.Second {
		t.Fatalf("cold prediction %v, want 2s", got)
	}
	// Tasks declared at 1s that actually run 10ms.
	for i := 0; i < 20; i++ {
		e.observe(Solve, 1, e.predict(Solve, 1), 10*time.Millisecond)
	}
	got := e.predict(Solve, 1)
	if got < 9*time.Millisecond || got > 12*time.Millisecond {
		t.Fatalf("calibrated prediction %v, want ~10ms", got)
	}
	// Contract class is calibrated independently.
	if got := e.predict(Contract, 1); got != time.Second {
		t.Fatalf("contract class leaked calibration: %v", got)
	}
	if e.meanErr() <= 0 {
		t.Fatal("estimate error accounting empty")
	}
}

// TestBudgetedPoolCalibratesAdmission: nominal costs off by 100x do not
// poison admission for long - after the first completions the EWMA pulls
// the estimates down to reality and the remaining tasks are admitted
// even though their nominal cost would no longer fit the shrunken
// remaining budget.
func TestBudgetedPoolCalibratesAdmission(t *testing.T) {
	p, err := New(context.Background(), Config{
		SolveWorkers: 1, ContractWorkers: 1,
		Budget: Budget{WallClock: 3 * time.Second, DrainGrace: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each task declares 1s but runs 5ms. Submitting sequentially makes
	// every admission decision see the latest calibration: by mid-run
	// the remaining budget is below the total *nominal* cost, and only a
	// calibrated estimator keeps admitting.
	const n = 6
	for i := 0; i < n; i++ {
		task := sleepTask(i, Solve, 5*time.Millisecond)
		task.Cost = 1
		if err := p.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	_, rep, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkDrainAccounting(t, rep)
	if rep.Succeeded != n {
		t.Fatalf("%d of %d tasks completed: %v", rep.Succeeded, n, rep)
	}
	if rep.EstimateErr <= 0 {
		t.Fatal("estimate error accounting empty")
	}
}

// TestDrainReportString: the human-readable report mentions the drain
// and budget lines when they carry information.
func TestDrainReportString(t *testing.T) {
	rep := Report{
		Tasks: 3, Succeeded: 1, Refused: 1, Stranded: 1,
		Drained: true, DrainReason: "budget expired", DrainedAt: 80 * time.Millisecond,
		BudgetWall: 100 * time.Millisecond, BudgetUsed: 90 * time.Millisecond, BudgetUtil: 0.9,
	}
	s := rep.String()
	for _, want := range []string{"refused", "stranded", "budget expired", "90ms"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
}

// TestBudgetValidation rejects nonsense budgets.
func TestBudgetValidation(t *testing.T) {
	if err := (Config{Budget: Budget{WallClock: -time.Second}}).Validate(); err == nil {
		t.Fatal("negative WallClock accepted")
	}
	if err := (Config{Budget: Budget{DrainGrace: -time.Second}}).Validate(); err == nil {
		t.Fatal("negative DrainGrace accepted")
	}
	if _, err := New(context.Background(), Config{Budget: Budget{WallClock: -1}}); err == nil {
		t.Fatal("New accepted a negative budget")
	}
}
