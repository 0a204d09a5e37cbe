package runtime

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"femtoverse/internal/fault"
)

// chaosTasks builds n quick solve-class tasks returning their IDs.
func chaosTasks(n int) []Task {
	var tasks []Task
	for i := 0; i < n; i++ {
		i := i
		tasks = append(tasks, Task{
			ID: i, Name: fmt.Sprintf("t%d", i), Class: Solve,
			Run: func(ctx context.Context) (interface{}, error) {
				select {
				case <-time.After(time.Millisecond):
					return i, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		})
	}
	return tasks
}

// TestChaosReproducibleAcrossWorkerCounts is the acceptance test for the
// chaos engine's identity keying: the same seed and plan must materialize
// the same injected-fault sequence per task - and the same final
// success/failure outcome - at 1, 4 and 16 workers, even though
// scheduling, casualties and retries interleave completely differently.
func TestChaosReproducibleAcrossWorkerCounts(t *testing.T) {
	plan := fault.Plan{
		Seed: 20260806, Transient: 0.12, Panic: 0.06, Hang: 0.06,
		Corrupt: 0.06, DomainLoss: 0.06, MaxInjections: 3,
	}
	run := func(workers int) ([]Result, Report) {
		res, rep, err := Run(context.Background(), Config{
			SolveWorkers: workers, ContractWorkers: 1,
			MaxRetries: 10, RetryBackoff: 100 * time.Microsecond,
			MaxBackoff: time.Millisecond, Watchdog: 20 * time.Millisecond,
			Fault: plan,
		}, chaosTasks(40))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, rep
	}
	ref, refRep := run(1)
	for _, workers := range []int{4, 16} {
		res, rep := run(workers)
		if rep.Faults != refRep.Faults {
			t.Fatalf("workers=%d faults %v, workers=1 %v", workers, rep.Faults, refRep.Faults)
		}
		if rep.Succeeded != refRep.Succeeded || rep.Failed != refRep.Failed {
			t.Fatalf("workers=%d outcome %d/%d, workers=1 %d/%d",
				workers, rep.Succeeded, rep.Failed, refRep.Succeeded, refRep.Failed)
		}
		for i := range res {
			if res[i].Value != ref[i].Value {
				t.Fatalf("workers=%d task %d value %v, workers=1 %v",
					workers, i, res[i].Value, ref[i].Value)
			}
			a, b := res[i].Metrics.Injected, ref[i].Metrics.Injected
			if len(a) != len(b) {
				t.Fatalf("workers=%d task %d injected %v, workers=1 %v", workers, i, a, b)
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("workers=%d task %d injected %v, workers=1 %v", workers, i, a, b)
				}
			}
		}
	}
	if refRep.Faults.Total() == 0 {
		t.Fatal("chaos plan injected nothing; the reproducibility test is vacuous")
	}
}

// TestOrganicWatchdogKillLeavesInjectedSequenceAlone is the chaos
// reproducibility test with the host's worst behaviour made deterministic:
// every task's first real execution stalls past the watchdog, as a
// descheduled attempt does on a loaded machine. The kill must spend retry
// budget and nothing else - same faults, same per-task injected sequence,
// same values as the run that never stalls - and must be told apart from
// the kills the plan's hangs cause.
func TestOrganicWatchdogKillLeavesInjectedSequenceAlone(t *testing.T) {
	plan := fault.Plan{
		Seed: 20260806, Transient: 0.12, Panic: 0.06, Hang: 0.06,
		Corrupt: 0.06, DomainLoss: 0.06, MaxInjections: 3,
	}
	run := func(tasks []Task) ([]Result, Report) {
		res, rep, err := Run(context.Background(), Config{
			SolveWorkers: 4, ContractWorkers: 1,
			MaxRetries: 10, RetryBackoff: 100 * time.Microsecond,
			MaxBackoff: time.Millisecond, Watchdog: 20 * time.Millisecond,
			Fault: plan,
		}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		return res, rep
	}
	stalling := chaosTasks(40)
	for i := range stalling {
		body, stalled := stalling[i].Run, false
		stalling[i].Run = func(ctx context.Context) (interface{}, error) {
			if !stalled { // attempts of one task never overlap
				stalled = true
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return body(ctx)
		}
	}
	ref, refRep := run(chaosTasks(40))
	res, rep := run(stalling)
	if rep.OrganicKills == 0 || refRep.OrganicKills != 0 {
		t.Fatalf("organic kills: stalling run %d, reference %d", rep.OrganicKills, refRep.OrganicKills)
	}
	if got := rep.WatchdogKills - rep.OrganicKills; got != rep.Faults.Hang {
		t.Fatalf("%d watchdog kills less %d organic is %d, injected hangs %d",
			rep.WatchdogKills, rep.OrganicKills, got, rep.Faults.Hang)
	}
	if rep.Faults != refRep.Faults {
		t.Fatalf("faults %v, without stalls %v", rep.Faults, refRep.Faults)
	}
	for i := range res {
		if res[i].Value != ref[i].Value || fmt.Sprint(res[i].Metrics.Injected) != fmt.Sprint(ref[i].Metrics.Injected) {
			t.Fatalf("task %d: value %v injected %v, without stalls %v %v", i,
				res[i].Value, res[i].Metrics.Injected, ref[i].Value, ref[i].Metrics.Injected)
		}
	}
}

// TestBackoffScheduleIsPinned pins the capped, deterministically
// jittered retry schedule: exact values derived from the fault seed and
// task identity, doubled per failure, never past 1.5x MaxBackoff.
func TestBackoffScheduleIsPinned(t *testing.T) {
	cfg := Config{
		SolveWorkers: 1, ContractWorkers: 1,
		RetryBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond,
		Fault: fault.Plan{Seed: 9},
	}
	p, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { p.Close(); p.Wait() }() //femtolint:ignore errdrop test teardown of an empty pool

	base := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond, 8 * time.Millisecond,
	}
	for taskID := 0; taskID < 5; taskID++ {
		for n := 1; n <= len(base); n++ {
			got := p.retryDelay(taskID, n)
			want := time.Duration(float64(base[n-1]) *
				(0.5 + fault.Uniform(cfg.Fault.Seed^backoffSalt, int64(taskID), int64(n))))
			if got != want {
				t.Fatalf("task %d failure %d: delay %v, pinned %v", taskID, n, got, want)
			}
			if got > time.Duration(1.5*float64(cfg.MaxBackoff)) {
				t.Fatalf("task %d failure %d: delay %v exceeds jittered cap", taskID, n, got)
			}
			if got < cfg.RetryBackoff/2 {
				t.Fatalf("task %d failure %d: delay %v below half the base", taskID, n, got)
			}
		}
		// The schedule is a pure function: re-evaluation is identical.
		if p.retryDelay(taskID, 3) != p.retryDelay(taskID, 3) {
			t.Fatal("retry delay is not deterministic")
		}
	}
	// Unbounded doubling is gone: even failure 40 stays at the cap.
	if d := p.retryDelay(0, 40); d > time.Duration(1.5*float64(cfg.MaxBackoff)) {
		t.Fatalf("failure 40 delay %v escaped the cap", d)
	}
}

// TestPanicIsolation: a panicking task must fail alone; the worker and
// the pool survive to run everything else.
func TestPanicIsolation(t *testing.T) {
	tasks := []Task{
		{ID: 0, Class: Solve, Run: func(context.Context) (interface{}, error) {
			panic("wild pointer")
		}},
	}
	for i := 1; i < 8; i++ {
		i := i
		tasks = append(tasks, Task{ID: i, Class: Solve, Run: func(context.Context) (interface{}, error) {
			return i, nil
		}})
	}
	res, rep, err := Run(context.Background(), Config{SolveWorkers: 2, ContractWorkers: 1}, tasks)
	if err == nil {
		t.Fatal("panicked task not reported")
	}
	if !errors.Is(res[0].Err, ErrPanic) {
		t.Fatalf("task 0 error %v, want ErrPanic", res[0].Err)
	}
	if rep.RecoveredPanics != 1 {
		t.Fatalf("recovered panics %d, want 1", rep.RecoveredPanics)
	}
	for _, r := range res[1:] {
		if r.Err != nil {
			t.Fatalf("task %d caught the panic: %v", r.Task.ID, r.Err)
		}
	}
}

// TestPanicRetries: an injected panic is a normal failure for retry
// purposes - the task recovers on a clean attempt.
func TestPanicRetries(t *testing.T) {
	attempts := 0
	tasks := []Task{{ID: 0, Class: Solve, Run: func(context.Context) (interface{}, error) {
		attempts++
		if attempts == 1 {
			panic("first attempt dies")
		}
		return "ok", nil
	}}}
	res, rep, err := Run(context.Background(), Config{
		SolveWorkers: 1, ContractWorkers: 1, MaxRetries: 2,
		RetryBackoff: 100 * time.Microsecond,
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value != "ok" || rep.RecoveredPanics != 1 || res[0].Metrics.Attempts != 2 {
		t.Fatalf("recovery failed: %+v, panics %d", res[0], rep.RecoveredPanics)
	}
}

// TestWatchdogReclaimsHungSlot: a task that ignores its context entirely
// is abandoned at the heartbeat deadline and its slot reused; the pool
// does not wait for the zombie.
func TestWatchdogReclaimsHungSlot(t *testing.T) {
	hang := Task{ID: 0, Class: Solve,
		Run: func(context.Context) (interface{}, error) {
			time.Sleep(300 * time.Millisecond) // deaf to cancellation
			return nil, nil
		}}
	follow := Task{ID: 1, Class: Solve, Run: func(context.Context) (interface{}, error) {
		return "alive", nil
	}}
	start := time.Now()
	res, rep, err := Run(context.Background(), Config{
		SolveWorkers: 1, ContractWorkers: 1, Watchdog: 15 * time.Millisecond,
	}, []Task{hang, follow})
	if err == nil {
		t.Fatal("hung task not reported")
	}
	if !errors.Is(res[0].Err, ErrWatchdog) {
		t.Fatalf("task 0 error %v, want ErrWatchdog", res[0].Err)
	}
	if rep.WatchdogKills != 1 {
		t.Fatalf("watchdog kills %d, want 1", rep.WatchdogKills)
	}
	if res[1].Err != nil || res[1].Value != "alive" {
		t.Fatalf("follow-up task did not run on the reclaimed slot: %+v", res[1])
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("pool waited %v for the zombie", elapsed)
	}
}

// TestInjectedHangIsKilledByWatchdog: the Hang fault stalls without
// returning; only the watchdog reclaims it, and the retry succeeds.
func TestInjectedHangIsKilledByWatchdog(t *testing.T) {
	// Find a seed whose first draw for task 0 is a hang.
	seed := int64(0)
	for {
		in, err := fault.NewInjector(fault.Plan{Seed: seed, Hang: 0.3, MaxInjections: 1})
		if err != nil {
			t.Fatal(err)
		}
		if in.Draw(0, 1) == fault.Hang {
			break
		}
		seed++
	}
	res, rep, err := Run(context.Background(), Config{
		SolveWorkers: 1, ContractWorkers: 1,
		MaxRetries: 3, RetryBackoff: 100 * time.Microsecond,
		Watchdog: 10 * time.Millisecond,
		Fault:    fault.Plan{Seed: seed, Hang: 0.3, MaxInjections: 1},
	}, chaosTasks(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Hang < 1 || rep.WatchdogKills < 1 {
		t.Fatalf("hang not injected+killed: %v, %d watchdog kills", rep.Faults, rep.WatchdogKills)
	}
	if res[0].Value != 0 {
		t.Fatalf("task did not recover after the hang: %+v", res[0])
	}
}

// TestDomainLossKillsCoDomainTasks: a DomainLoss fault takes down the
// in-flight tasks sharing the failure domain (the MPI_Abort lump kill);
// casualties retry for free and everything completes.
func TestDomainLossKillsCoDomainTasks(t *testing.T) {
	// Find a seed where task 0 draws DomainLoss on its first attempt and
	// the longer-running victims draw nothing.
	plan := fault.Plan{DomainLoss: 0.3, MaxInjections: 1}
	for seed := int64(0); ; seed++ {
		plan.Seed = seed
		in, err := fault.NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		clean := in.Draw(0, 1) == fault.DomainLoss
		for id := 1; id < 4 && clean; id++ {
			clean = in.Draw(id, 1) == fault.None && in.Draw(id, 2) == fault.None
		}
		if clean {
			break
		}
	}
	killer := Task{ID: 0, Class: Solve, Run: func(ctx context.Context) (interface{}, error) {
		select {
		case <-time.After(5 * time.Millisecond):
			return 0, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	var tasks []Task
	tasks = append(tasks, killer)
	for i := 1; i < 4; i++ {
		i := i
		tasks = append(tasks, Task{ID: i, Class: Solve,
			Run: func(ctx context.Context) (interface{}, error) {
				select {
				case <-time.After(60 * time.Millisecond):
					return i, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}})
	}
	res, rep, err := Run(context.Background(), Config{
		SolveWorkers: 2, ContractWorkers: 1, // one failure domain
		MaxRetries: 3, RetryBackoff: 100 * time.Microsecond,
		Fault: plan,
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.DomainLoss != 1 {
		t.Fatalf("domain losses %d, want 1", rep.Faults.DomainLoss)
	}
	if rep.DomainCasualties == 0 {
		t.Fatal("no casualties from a domain loss with three co-domain tasks in flight")
	}
	for i, r := range res {
		if r.Err != nil || r.Value != i {
			t.Fatalf("task %d did not recover: %+v", i, r)
		}
	}
}

// TestCorruptResultsAreDiscarded: a Corrupt fault must never leak a
// value; the attempt fails, is retried, and the clean value lands.
func TestCorruptResultsAreDiscarded(t *testing.T) {
	plan := fault.Plan{Seed: 5, Corrupt: 0.5, MaxInjections: 2}
	res, rep, err := Run(context.Background(), Config{
		SolveWorkers: 4, ContractWorkers: 1,
		MaxRetries: 5, RetryBackoff: 100 * time.Microsecond,
		Fault: plan,
	}, chaosTasks(20))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Corrupt == 0 {
		t.Fatal("50% corruption rate injected nothing over 20 tasks")
	}
	for i, r := range res {
		if r.Value != i {
			t.Fatalf("task %d final value %v; a corrupted result leaked", i, r.Value)
		}
	}
}
