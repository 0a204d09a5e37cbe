package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"femtoverse/internal/cluster"
	"femtoverse/internal/mpijm"
	"femtoverse/internal/obs"
	jobrt "femtoverse/internal/runtime"
)

// TimeScale converts a simulated second into live wall clock: generated
// task durations of 4-25 simulated seconds become 8-50ms sleeps, long
// enough that scheduling decisions dominate goroutine overhead but
// short enough that a full sweep soaks in seconds.
const TimeScale = 2 * time.Millisecond

// PreemptReason is the notice string the harness delivers on
// Config.Preempt; the drain-on-preempt invariant requires the live
// report to echo it back verbatim.
const PreemptReason = "preempt notice"

const (
	// utilTolerance bounds |live solve util - sim GPU util| for calm and
	// net-chaos scenarios; utilToleranceChaos loosens it when compute
	// chaos is live (hangs burn watchdog time on the pool but nominal
	// task time in the simulator).
	utilTolerance      = 0.25
	utilToleranceChaos = 0.35
)

// liveDuration scales a simulated duration to live wall clock.
func liveDuration(simSeconds float64) time.Duration {
	return time.Duration(simSeconds * float64(TimeScale))
}

// Outcome is everything one scenario run produced: the canonical Report
// (replay-comparable), the violated invariants if any, and the raw live
// and simulated reports for inspection and wall-clock side data.
type Outcome struct {
	Scenario Scenario
	Report   Report
	// Violations lists every invariant that failed, one message each; an
	// empty slice is a passing run. Violations are outcome data, not
	// errors - Run returns an error only when it could not execute the
	// scenario at all.
	Violations []string
	Live       jobrt.Report
	Sim        cluster.Report
	// LiveWall is the observed wall clock of the live pool run
	// (non-canonical: timing, not identity).
	LiveWall time.Duration
}

// Run executes one scenario end to end: the live pool run, the
// simulator twin, the invariant set, and the physics episode. The
// returned Outcome's Report is canonical - running the same (seed,
// index) twice must produce byte-identical Report.Canonical() output.
func Run(ctx context.Context, sc Scenario) (*Outcome, error) {
	if err := sc.Plan.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: bad plan: %w", sc.Name, err)
	}
	out := &Outcome{Scenario: sc}
	rep := Report{
		Name:           sc.Name,
		Seed:           sc.Seed,
		Index:          sc.Index,
		Family:         sc.Family.String(),
		Adversity:      sc.Adversity.String(),
		Workers:        sc.Workload.SolveWorkers,
		Tasks:          len(sc.Workload.Tasks),
		WorkloadDigest: sc.WorkloadDigest(),
		Plan:           sc.Plan.String(),
		Deterministic:  sc.Deterministic(),
	}
	applied := func(check string) { rep.Checks = append(rep.Checks, check) }
	fail := func(format string, args ...interface{}) {
		out.Violations = append(out.Violations, fmt.Sprintf(format, args...))
	}

	results, live, snap, liveWall, err := sc.runLive(ctx)
	if err != nil {
		return nil, err
	}
	out.Live, out.LiveWall = live, liveWall
	sim, err := sc.runSim()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: simulator: %w", sc.Name, err)
	}
	out.Sim = sim
	rep.SimDigest = simDigest(sim)
	rep.SimTasksDone = sim.TasksDone
	rep.SimRefused = sim.Refused
	rep.SimStranded = sim.StrandedTasks
	rep.SimFailures = sim.Failures
	rep.SimExpired = sim.Expired
	rep.SimFaults = sim.Faults.String()

	// Conservation: the live report's accounting identities, and the
	// simulated twin's (every task done, refused, or stranded).
	applied("live-conservation")
	if err := live.CheckConservation(); err != nil {
		fail("live conservation: %v", err)
	}
	applied("sim-conservation")
	if n := sim.TasksDone + sim.Refused + sim.StrandedTasks; n != len(sc.Workload.Tasks) {
		fail("sim conservation: %d done + %d refused + %d stranded != %d tasks",
			sim.TasksDone, sim.Refused, sim.StrandedTasks, len(sc.Workload.Tasks))
	}

	// Obs consistency: the metrics registry must agree with the report.
	applied("obs-consistency")
	checkObs(snap, live, fail)

	// Tenancy: the generator's per-tenant budget contract.
	if sc.Workload.Tenants > 0 {
		applied("tenant-budgets")
		spent := make([]float64, sc.Workload.Tenants)
		for i := range sc.Workload.Tasks {
			t := sc.Workload.Tasks[i]
			if t.Tenant >= 0 && t.Solve {
				spent[t.Tenant] += t.Seconds
			}
		}
		for t, s := range spent {
			if s > sc.Workload.TenantBudget[t]+1e-9 {
				fail("tenant %d spent %.3g solve-seconds over budget %.3g",
					t, s, sc.Workload.TenantBudget[t])
			}
		}
	}

	// Payload integrity: every succeeded task must return exactly its
	// seeded payload - a Corrupt fault that leaked a value into the
	// result stream shows up here.
	applied("payload-integrity")
	var succeededIDs []int
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			continue
		}
		succeededIDs = append(succeededIDs, r.Task.ID)
		v, ok := r.Value.(float64)
		if !ok || v != Payload(sc.Seed, sc.Index, r.Task.ID) {
			fail("task %d payload %v != seeded payload %v", r.Task.ID, r.Value,
				Payload(sc.Seed, sc.Index, r.Task.ID))
		}
	}

	if sc.Deterministic() {
		// Closed-form outcome: the identity-keyed plan fixes the fault
		// sequence of every task, so the live pool, the simulator, and a
		// from-scratch replay of the draws must agree exactly.
		applied("expected-outcome")
		expCounts, expFailed, err := expectedOutcome(sc.Plan, sc.Workload.Tasks)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: expected outcome: %w", sc.Name, err)
		}
		if live.Succeeded != len(sc.Workload.Tasks) || live.Failed != 0 ||
			live.Refused != 0 || live.Stranded != 0 {
			fail("live outcome %d ok %d failed %d refused %d stranded, want all %d ok",
				live.Succeeded, live.Failed, live.Refused, live.Stranded, len(sc.Workload.Tasks))
		}
		if live.Faults != expCounts {
			fail("live faults %v != expected %v", live.Faults, expCounts)
		}
		// Kills the loaded host caused are real failed attempts, but not
		// the plan's: the closed form knows only the injected ones.
		if got := live.FailedAttempts - live.OrganicKills; got != expFailed {
			fail("live injected failed attempts %d != expected %d", got, expFailed)
		}
		if got := live.WatchdogKills - live.OrganicKills; got != expCounts.Hang {
			fail("live injected watchdog kills %d != expected hangs %d", got, expCounts.Hang)
		}
		if live.RecoveredPanics != expCounts.Panic {
			fail("live recovered panics %d != expected panics %d", live.RecoveredPanics, expCounts.Panic)
		}
		if sim.TasksDone != len(sc.Workload.Tasks) {
			fail("sim finished %d of %d tasks", sim.TasksDone, len(sc.Workload.Tasks))
		}
		if sim.Faults != expCounts {
			fail("sim faults %v != expected %v", sim.Faults, expCounts)
		}
		if sim.Failures != expFailed {
			fail("sim failures %d != expected %d", sim.Failures, expFailed)
		}
		rep.Succeeded = live.Succeeded
		rep.FailedAttempts = live.FailedAttempts - live.OrganicKills
		rep.Faults = live.Faults.String()
		rep.PayloadDigest = payloadDigest(succeededIDs, sc.Seed, sc.Index)

		// Utilization parity: the live executor must land near the
		// discrete-event model's schedule quality.
		applied("util-parity")
		tol := utilTolerance
		if sc.Adversity == ComputeChaos {
			tol = utilToleranceChaos
		}
		if d := math.Abs(live.SolveUtil - sim.GPUUtil); d > tol {
			fail("solve utilization diverged: live %.3f vs sim %.3f (tolerance %.2f)",
				live.SolveUtil, sim.GPUUtil, tol)
		}
	}

	if sc.Adversity == NetChaos {
		// The simulator prices every wire-level recovery; the tally and
		// the priced total must agree to within float noise.
		applied("net-recovery-pricing")
		want := float64(sim.Faults.NetDrop+sim.Faults.NetDelay+sim.Faults.NetCorrupt)*cluster.NetRetrySeconds +
			float64(sim.Faults.NetPartition)*cluster.PartitionRecoverySeconds
		if math.Abs(sim.NetRecoverySeconds-want) > 1e-6 {
			fail("sim net recovery %.6f s != priced tally %.6f s", sim.NetRecoverySeconds, want)
		}
		if sim.Faults.NetDrop+sim.Faults.NetDelay+sim.Faults.NetCorrupt+sim.Faults.NetPartition == 0 {
			fail("net-chaos scenario injected no network faults (vacuous)")
		}
	}

	if sc.Adversity == Preemption {
		// The notice fires before any task can complete, so the drain
		// path must have run, with the notice echoed as the reason.
		applied("drain-on-preempt")
		if !live.Drained || live.DrainReason != PreemptReason {
			fail("preemption notice not honoured: drained=%v reason=%q",
				live.Drained, live.DrainReason)
		}
		rep.Drained = live.Drained
		rep.DrainReason = live.DrainReason
	}

	if sc.Adversity == BudgetExpiry {
		// The monster task exceeds the allocation fifty-fold: admission
		// control must refuse it on both sides, whatever else the expiry
		// does.
		applied("monster-refused")
		refused := false
		for i := range results {
			if results[i].Task.ID == sc.MonsterID {
				refused = errors.Is(results[i].Err, jobrt.ErrRefused)
			}
		}
		if !refused {
			fail("live admission control started the monster task")
		}
		if live.Refused < 1 {
			fail("live budget expiry refused nothing")
		}
		if sim.Refused < 1 {
			fail("sim budget expiry refused nothing")
		}
		for i := range sim.PerTask {
			if sim.PerTask[i].Task.ID == sc.MonsterID {
				fail("sim admission control started the monster task")
			}
		}
		rep.MonsterRefused = refused
	}

	// The physics episode: a real (if tiny) campaign run under the
	// scenario's adversity must reproduce the unperturbed sequential
	// reference bit-for-bit.
	fp, physChecks, physViolations, err := sc.runPhysics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: physics episode: %w", sc.Name, err)
	}
	rep.Checks = append(rep.Checks, physChecks...)
	out.Violations = append(out.Violations, physViolations...)
	rep.PhysicsFingerprint = fp

	out.Report = rep
	return out, nil
}

// checkObs verifies the metrics snapshot against the live report.
func checkObs(snap obs.Snapshot, live jobrt.Report, fail func(string, ...interface{})) {
	counter := func(name string, want int64) {
		got, ok := snap.CounterValue(name)
		if !ok && want == 0 {
			return
		}
		if got != want {
			fail("obs counter %s = %d, report says %d", name, got, want)
		}
	}
	attempts := 0
	for i := range live.PerTask {
		attempts += live.PerTask[i].Attempts
	}
	counter("runtime.tasks", int64(live.Tasks))
	counter("runtime.tasks_succeeded", int64(live.Succeeded))
	counter("runtime.tasks_failed", int64(live.Failed))
	counter("runtime.refused", int64(live.Refused))
	counter("runtime.attempts", int64(attempts))
	counter("runtime.failed_attempts", int64(live.FailedAttempts))
	counter("runtime.recovered_panics", int64(live.RecoveredPanics))
	counter("runtime.watchdog_kills", int64(live.WatchdogKills))
	counter("runtime.domain_casualties", int64(live.DomainCasualties))
	counter("runtime.backfills", int64(live.Backfills))
	gauge := func(name string, want float64) {
		got, ok := snap.GaugeValue(name)
		if !ok {
			fail("obs gauge %s missing", name)
			return
		}
		if got != want {
			fail("obs gauge %s = %g, report says %g", name, got, want)
		}
	}
	gauge("runtime.solve_util", live.SolveUtil)
	gauge("runtime.contract_util", live.ContractUtil)
	gauge("runtime.wall_seconds", live.Wall.Seconds())
}

// liveTask converts one generated TaskSpec into a live pool task: a
// context-honouring sleep of the scaled nominal duration that returns
// the task's seeded payload.
func (sc Scenario) liveTask(spec TaskSpec) jobrt.Task {
	dur := liveDuration(spec.Seconds)
	payload := Payload(sc.Seed, sc.Index, spec.ID)
	class := jobrt.Contract
	if spec.Solve {
		class = jobrt.Solve
	}
	return jobrt.Task{
		ID:        spec.ID,
		Name:      spec.Name,
		Class:     class,
		Slots:     spec.Slots,
		Cost:      spec.Seconds,
		DependsOn: append([]int(nil), spec.DependsOn...),
		Run: func(tctx context.Context) (interface{}, error) {
			t := time.NewTimer(dur)
			defer t.Stop()
			select {
			case <-t.C:
				return payload, nil
			case <-tctx.Done():
				return nil, tctx.Err()
			}
		},
	}
}

// runLive executes the workload on the real pool under the scenario's
// adversity and returns the results, report, and metrics snapshot.
func (sc Scenario) runLive(ctx context.Context) ([]jobrt.Result, jobrt.Report, obs.Snapshot, time.Duration, error) {
	w := sc.Workload
	reg := obs.NewRegistry()
	cfg := jobrt.Config{
		SolveWorkers:    w.SolveWorkers,
		ContractWorkers: w.SolveWorkers,
		// MaxRetries exceeds the per-task injection cap, so no task ever
		// fails terminally: the closed-form outcome the deterministic
		// invariants compare against.
		MaxRetries:   sc.Plan.MaxInjections + 1,
		RetryBackoff: 200 * time.Microsecond,
		MaxBackoff:   2 * time.Millisecond,
		Fault:        sc.Plan,
		Metrics:      reg,
	}
	if sc.Plan.Hang > 0 {
		// The watchdog must clear every legitimate task comfortably while
		// still reclaiming hung attempts fast enough to soak quickly.
		maxSec := 0.0
		for i := range w.Tasks {
			if w.Tasks[i].Seconds > maxSec {
				maxSec = w.Tasks[i].Seconds
			}
		}
		cfg.Watchdog = 2*liveDuration(maxSec) + 20*time.Millisecond
	}
	var preempt chan string
	switch sc.Adversity {
	case Preemption:
		cfg.Budget = jobrt.Budget{DrainGrace: 2 * time.Second}
		preempt = make(chan string, 1)
		cfg.Preempt = preempt
	case BudgetExpiry:
		cfg.Budget = jobrt.Budget{
			WallClock:  liveDuration(sc.SimWallSeconds),
			DrainGrace: 2 * time.Second,
		}
	}

	pool, err := jobrt.New(ctx, cfg)
	if err != nil {
		return nil, jobrt.Report{}, obs.Snapshot{}, 0, fmt.Errorf("scenario %s: pool: %w", sc.Name, err)
	}
	if preempt != nil {
		notice := time.AfterFunc(sc.PreemptAfter, func() { preempt <- PreemptReason })
		defer notice.Stop()
	}

	// Submit in arrival order with scaled gaps: the live rendering of the
	// bursty families' staggered tenancy. Ties submit in ID order, which
	// is also dependency order.
	order := make([]int, len(w.Tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := w.Tasks[order[a]], w.Tasks[order[b]]
		if ta.ArrivalSeconds != tb.ArrivalSeconds {
			return ta.ArrivalSeconds < tb.ArrivalSeconds
		}
		return ta.ID < tb.ID
	})
	start := time.Now()
	for _, i := range order {
		spec := w.Tasks[i]
		if wait := liveDuration(spec.ArrivalSeconds) - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				pool.Close()
				if _, _, werr := pool.Wait(); werr != nil {
					return nil, jobrt.Report{}, obs.Snapshot{}, 0,
						fmt.Errorf("scenario %s: teardown after cancel: %w", sc.Name, werr)
				}
				return nil, jobrt.Report{}, obs.Snapshot{}, 0, ctx.Err()
			}
		}
		if err := pool.Submit(sc.liveTask(spec)); err != nil {
			pool.Close()
			if _, _, werr := pool.Wait(); werr != nil {
				err = fmt.Errorf("%w (teardown: %w)", err, werr)
			}
			return nil, jobrt.Report{}, obs.Snapshot{}, 0,
				fmt.Errorf("scenario %s: submit task %d: %w", sc.Name, spec.ID, err)
		}
	}
	pool.Close()
	results, live, err := pool.Wait()
	if err != nil {
		return nil, jobrt.Report{}, obs.Snapshot{}, 0, fmt.Errorf("scenario %s: pool run: %w", sc.Name, err)
	}
	return results, live, reg.Snapshot(), time.Since(start), nil
}

// runSim executes the workload's discrete-event twin: solve tasks map to
// one-GPU-per-slot jobs, contractions to CPU-slot jobs, under the
// mpi_jm co-scheduling policy on a cluster shaped exactly like the live
// pool (one GPU plus two CPU slots per node, so the contract class
// matches the live worker count).
func (sc Scenario) runSim() (cluster.Report, error) {
	w := sc.Workload
	pol := mpijm.New(mpijm.Params{
		LumpNodes:       w.SolveWorkers,
		BlockNodes:      2,
		SpawnOverhead:   1e-4,
		SolveEfficiency: 1,
		CoSchedule:      true,
	})
	cfg := cluster.Config{
		Nodes:           w.SolveWorkers,
		GPUsPerNode:     1,
		CPUSlotsPerNode: 2,
		Seed:            1,
		Fault:           sc.Plan,
		MaxRetries:      sc.Plan.MaxInjections + 1,
	}
	startup := pol.Startup(cfg)
	switch sc.Adversity {
	case Preemption:
		// The live notice instant, translated onto the simulated clock:
		// the allocation is reclaimed PreemptAfter into the busy window.
		cfg.AllocationSeconds = startup + sc.PreemptAfter.Seconds()/TimeScale.Seconds()
		cfg.AdmissionControl = true
	case BudgetExpiry:
		cfg.AllocationSeconds = startup + sc.SimWallSeconds
		cfg.AdmissionControl = true
	}
	tasks := make([]cluster.Task, 0, len(w.Tasks))
	for i := range w.Tasks {
		t := w.Tasks[i]
		ct := cluster.Task{
			ID:        t.ID,
			Name:      t.Name,
			Seconds:   t.Seconds,
			DependsOn: append([]int(nil), t.DependsOn...),
		}
		if t.Solve {
			ct.Kind = cluster.GPUTask
			ct.GPUs = t.Slots
			if ct.GPUs <= 0 {
				ct.GPUs = 1
			}
		} else {
			ct.Kind = cluster.CPUTask
			ct.CPUs = 1
		}
		if t.ArrivalSeconds > 0 {
			// Live arrivals stagger relative to the first dispatch; the
			// simulated clock spends startup first.
			ct.ArrivalSeconds = startup + t.ArrivalSeconds
		}
		tasks = append(tasks, ct)
	}
	return cluster.Run(cfg, tasks, pol)
}
