package runtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"femtoverse/internal/fault"
)

// sleepTask returns a task that sleeps for d (honouring ctx) and returns
// its ID.
func sleepTask(id int, class Class, d time.Duration, deps ...int) Task {
	return Task{
		ID:        id,
		Name:      fmt.Sprintf("t%d", id),
		Class:     class,
		Cost:      d.Seconds(),
		DependsOn: deps,
		Run: func(ctx context.Context) (interface{}, error) {
			select {
			case <-time.After(d):
				return id, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
}

func TestResultsInSubmissionOrder(t *testing.T) {
	var tasks []Task
	for i := 0; i < 24; i++ {
		// Varying durations so completion order differs from submission.
		d := time.Duration(1+(i*7)%5) * time.Millisecond
		tasks = append(tasks, sleepTask(100+i, Solve, d))
	}
	res, rep, err := Run(context.Background(), Config{SolveWorkers: 4}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 24 || rep.Tasks != 24 || rep.Succeeded != 24 {
		t.Fatalf("counts: %d results, %+v", len(res), rep)
	}
	for i, r := range res {
		if r.Task.ID != 100+i {
			t.Fatalf("result %d carries task %d; want submission order", i, r.Task.ID)
		}
		if v, ok := r.Value.(int); !ok || v != 100+i {
			t.Fatalf("result %d value %v", i, r.Value)
		}
	}
	if rep.SolveUtil <= 0 || rep.SolveUtil > 1 {
		t.Fatalf("solve utilization %v outside (0,1]", rep.SolveUtil)
	}
}

func TestDependenciesGateExecution(t *testing.T) {
	var mu sync.Mutex
	var order []int
	record := func(id int) func(context.Context) (interface{}, error) {
		return func(context.Context) (interface{}, error) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil, nil
		}
	}
	tasks := []Task{
		{ID: 0, Class: Solve, Run: record(0)},
		{ID: 1, Class: Contract, DependsOn: []int{0}, Run: record(1)},
		{ID: 2, Class: Contract, DependsOn: []int{0, 1}, Run: record(2)},
	}
	if _, _, err := Run(context.Background(), Config{SolveWorkers: 2, ContractWorkers: 2}, tasks); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("execution order %v violates dependencies", order)
	}
}

func TestClassWidthsBoundConcurrency(t *testing.T) {
	var inFlight, peak atomic.Int64
	var tasks []Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, Task{
			ID: i, Class: Solve,
			Run: func(context.Context) (interface{}, error) {
				n := inFlight.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				inFlight.Add(-1)
				return nil, nil
			},
		})
	}
	if _, _, err := Run(context.Background(), Config{SolveWorkers: 3, ContractWorkers: 1}, tasks); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds 3 solve workers", p)
	}
}

func TestWideTaskOccupiesSlots(t *testing.T) {
	var inFlight, peak atomic.Int64
	track := func(w int64) func(context.Context) (interface{}, error) {
		return func(context.Context) (interface{}, error) {
			n := inFlight.Add(w)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-w)
			return nil, nil
		}
	}
	tasks := []Task{
		{ID: 0, Class: Solve, Slots: 4, Cost: 0.005, Run: track(4)},
		{ID: 1, Class: Solve, Slots: 2, Cost: 0.005, Run: track(2)},
		{ID: 2, Class: Solve, Slots: 2, Cost: 0.005, Run: track(2)},
		{ID: 3, Class: Solve, Slots: 4, Cost: 0.005, Run: track(4)},
	}
	if _, _, err := Run(context.Background(), Config{SolveWorkers: 4, ContractWorkers: 1}, tasks); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("slot-weighted concurrency peaked at %d on 4 slots", p)
	}
}

func TestBackfillRecoversIdleSlots(t *testing.T) {
	// 4 solve workers: two 1-slot holders run long, a 4-wide head must
	// wait for them, and short 1-slot fillers should flow through the
	// two idle slots in the meantime.
	var tasks []Task
	tasks = append(tasks,
		sleepTask(0, Solve, 60*time.Millisecond),
		sleepTask(1, Solve, 60*time.Millisecond),
	)
	wide := sleepTask(2, Solve, 5*time.Millisecond)
	wide.Slots = 4
	tasks = append(tasks, wide)
	for i := 3; i < 9; i++ {
		tasks = append(tasks, sleepTask(i, Solve, 3*time.Millisecond))
	}
	res, rep, err := Run(context.Background(), Config{SolveWorkers: 4, ContractWorkers: 1}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backfills == 0 {
		t.Fatal("no backfills on a mix engineered for them")
	}
	backfilled := 0
	for _, r := range res[3:] {
		if r.Metrics.Backfilled {
			backfilled++
		}
	}
	if backfilled == 0 {
		t.Fatal("no filler task marked backfilled")
	}
	// The wide head still ran (backfilling must not starve it).
	if res[2].Err != nil || res[2].Metrics.Attempts != 1 {
		t.Fatalf("wide task: %+v", res[2])
	}
}

func TestInjectedFailuresAreRetriedToSuccess(t *testing.T) {
	var tasks []Task
	for i := 0; i < 30; i++ {
		tasks = append(tasks, sleepTask(i, Solve, time.Millisecond))
	}
	res, rep, err := Run(context.Background(), Config{
		SolveWorkers: 4, ContractWorkers: 1,
		Fault:        fault.Plan{Seed: 11, Transient: 0.4},
		MaxRetries:   20,
		RetryBackoff: 100 * time.Microsecond,
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Succeeded != 30 {
		t.Fatalf("retries did not recover: %+v", rep)
	}
	if rep.FailedAttempts == 0 {
		t.Fatal("40% failure rate injected no failures over 30 tasks")
	}
	retried := 0
	for _, r := range res {
		if r.Metrics.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no task records multiple attempts")
	}
}

func TestRetryLimitGivesUp(t *testing.T) {
	calls := 0
	tasks := []Task{{
		ID: 0, Class: Solve,
		Run: func(context.Context) (interface{}, error) {
			calls++
			return nil, errors.New("boom")
		},
	}}
	res, rep, err := Run(context.Background(), Config{
		SolveWorkers: 1, ContractWorkers: 1, MaxRetries: 3, RetryBackoff: 100 * time.Microsecond,
	}, tasks)
	if err == nil {
		t.Fatal("terminal failure not reported")
	}
	if calls != 4 {
		t.Fatalf("%d executions; want initial + 3 retries", calls)
	}
	if rep.Failed != 1 || res[0].Err == nil {
		t.Fatalf("report %+v, err %v", rep, res[0].Err)
	}
}

func TestCancellationAbortsPool(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p, err := New(ctx, Config{SolveWorkers: 1, ContractWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	blocker := Task{ID: 0, Class: Solve, Run: func(c context.Context) (interface{}, error) {
		close(started)
		<-c.Done()
		return nil, c.Err()
	}}
	if err := p.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if err := p.Submit(sleepTask(i, Solve, time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	<-started
	cancel()
	res, rep, err := p.Wait()
	if err == nil {
		t.Fatal("cancelled pool reported success")
	}
	if rep.Failed == 0 {
		t.Fatalf("no failures after cancellation: %+v", rep)
	}
	for _, r := range res {
		if r.Err == nil {
			t.Fatalf("task %d succeeded after cancellation before it could start", r.Task.ID)
		}
	}
}

func TestDependencyFailureCascades(t *testing.T) {
	tasks := []Task{
		{ID: 0, Class: Solve, Run: func(context.Context) (interface{}, error) {
			return nil, errors.New("solve died")
		}},
		sleepTask(1, Contract, time.Millisecond, 0),
		sleepTask(2, Contract, time.Millisecond, 1),
		sleepTask(3, Solve, time.Millisecond),
	}
	res, rep, err := Run(context.Background(), Config{SolveWorkers: 2, ContractWorkers: 2}, tasks)
	if err == nil {
		t.Fatal("failure not reported")
	}
	if res[1].Err == nil || res[2].Err == nil {
		t.Fatal("dependents of a failed task did not fail")
	}
	if res[3].Err != nil {
		t.Fatal("independent task caught the cascade")
	}
	if rep.Failed != 3 || rep.Succeeded != 1 {
		t.Fatalf("report %+v", rep)
	}
}

func TestDanglingDependencyFailsOnClose(t *testing.T) {
	p, err := New(context.Background(), Config{SolveWorkers: 1, ContractWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(sleepTask(0, Solve, time.Millisecond, 99)); err != nil {
		t.Fatal(err)
	}
	p.Close()
	res, _, err := p.Wait()
	if err == nil || res[0].Err == nil {
		t.Fatal("dangling dependency not surfaced")
	}
}

func TestDependencyCycleDetected(t *testing.T) {
	p, err := New(context.Background(), Config{SolveWorkers: 1, ContractWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(sleepTask(0, Solve, time.Millisecond, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(sleepTask(1, Solve, time.Millisecond, 0)); err != nil {
		t.Fatal(err)
	}
	p.Close()
	done := make(chan struct{})
	var res []Result
	var werr error
	go func() {
		res, _, werr = p.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung on a dependency cycle")
	}
	if werr == nil || res[0].Err == nil || res[1].Err == nil {
		t.Fatal("cycle not surfaced as task errors")
	}
}

func TestBackpressureBoundsRunnableBacklog(t *testing.T) {
	// One solve and one contract worker: the backlog bound is 4 per
	// worker, 8 runnable tasks (one running, seven ready).
	const depth = 8
	p, err := New(context.Background(), Config{SolveWorkers: 1, ContractWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	submitted := make(chan int, 2*depth)
	go func() {
		for i := 0; i < 2*depth; i++ {
			if err := p.Submit(Task{ID: i, Class: Solve, Run: func(context.Context) (interface{}, error) {
				<-release
				return nil, nil
			}}); err != nil {
				break
			}
			submitted <- i
		}
		p.Close()
		close(submitted)
	}()
	// Nothing finishes until release, so the producer must stall at
	// exactly the bound.
	for n := 0; n < depth; n++ {
		select {
		case <-submitted:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d tasks admitted, want the backlog bound %d", n, depth)
		}
	}
	select {
	case i := <-submitted:
		t.Fatalf("task %d admitted past the backlog bound %d with nothing finished", i, depth)
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	if _, rep, err := p.Wait(); err != nil || rep.Succeeded != 2*depth {
		t.Fatalf("drain failed: %v %+v", err, rep)
	}
}

func TestSubmitValidation(t *testing.T) {
	p, err := New(context.Background(), Config{SolveWorkers: 2, ContractWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(Task{ID: 0, Class: Solve}); err == nil {
		t.Fatal("task without Run accepted")
	}
	if err := p.Submit(Task{ID: 0, Class: Class(9), Run: func(context.Context) (interface{}, error) { return nil, nil }}); err == nil {
		t.Fatal("unknown class accepted")
	}
	if err := p.Submit(sleepTask(0, Solve, 0, 0)); err == nil {
		t.Fatal("self-dependency accepted")
	}
	wide := sleepTask(0, Solve, 0)
	wide.Slots = 3
	if err := p.Submit(wide); err == nil {
		t.Fatal("task wider than its class accepted")
	}
	if err := p.Submit(sleepTask(7, Solve, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(sleepTask(7, Solve, time.Millisecond)); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	p.Close()
	if err := p.Submit(sleepTask(8, Solve, time.Millisecond)); err == nil {
		t.Fatal("submit after Close accepted")
	}
	if _, _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidatesBatch(t *testing.T) {
	if _, _, err := Run(context.Background(), Config{}, []Task{
		sleepTask(0, Solve, 0), sleepTask(0, Solve, 0),
	}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if _, _, err := Run(context.Background(), Config{}, []Task{
		sleepTask(0, Solve, 0, 42),
	}); err == nil {
		t.Fatal("dangling dependency accepted")
	}
	if err := (Config{Fault: fault.Plan{Transient: 1.5}}).Validate(); err == nil {
		t.Fatal("fault rate 1.5 accepted")
	}
	if err := (Config{Fault: fault.Plan{Hang: 0.1}}).Validate(); err == nil || !strings.Contains(err.Error(), "Watchdog") {
		t.Fatalf("hang injection without a watchdog: %v, want a refusal naming the Watchdog", err)
	}
}
