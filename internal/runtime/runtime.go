// Package runtime is the paper's mpi_jm job manager ported from
// simulation to real concurrent execution: where internal/cluster and
// internal/mpijm *model* how thousands of independent solves and
// contractions share an allocation, this package *is* the scheduler - it
// runs them, on goroutines, with the same structure:
//
//   - two worker classes sized from the host CPU count, a solve class
//     (the GPU analogue, wide tasks holding several slots like a 16-GPU
//     propagator job) and a contract class (the CPU analogue), so
//     contractions co-schedule under in-flight solves exactly as mpi_jm
//     overlays CPU tasks on the host cores of GPU-busy nodes (§VII);
//   - a dependency-aware ready queue in submission order with EASY
//     backfilling: when a wide task waits at the head for slots to drain,
//     smaller tasks start in the holes only if they cannot delay the
//     head's reservation;
//   - bounded admission with backpressure (Submit blocks while the
//     runnable backlog is full), per-task context cancellation, and
//     bounded retry with capped, deterministically jittered exponential
//     backoff;
//   - a fault-tolerance layer over the internal/fault chaos engine:
//     injected faults are keyed by task identity so a chaos run replays
//     exactly at any worker count, worker panics are isolated (the task
//     fails, the worker survives), a watchdog abandons attempts that stop
//     making progress, and a failure-domain loss kills the in-flight
//     co-domain tasks the way an MPI_Abort takes down a whole lump;
//   - per-task lifecycle metrics rolled into a Report whose utilization
//     and waste accounting match cluster.Report, so the simulator's
//     predictions and the real executor can be cross-checked.
//
// Results are returned in submission order regardless of completion
// order, so a campaign's physics output is independent of scheduling.
package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sort"
	"sync"
	"time"

	"femtoverse/internal/fault"
	"femtoverse/internal/obs"
)

// Class is a worker class: the runtime analogue of cluster.TaskKind.
type Class int

const (
	// Solve is the GPU-analog class running the heavy Dirac solves.
	Solve Class = iota
	// Contract is the CPU-analog class running contractions and I/O,
	// co-scheduled under in-flight solves.
	Contract

	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Solve:
		return "solve"
	case Contract:
		return "contract"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ErrInjected is the synthetic failure injected by Config.Fault; it
// aliases fault.ErrInjected so errors.Is works across layers.
var ErrInjected = fault.ErrInjected

// ErrPanic wraps a panic recovered from a task's Run: the worker
// goroutine survives, the task fails (and may retry).
var ErrPanic = errors.New("runtime: task panicked")

// ErrWatchdog marks an attempt abandoned by the watchdog: the task's Run
// exceeded the heartbeat deadline without returning, so its slots were
// reclaimed and the stalled goroutine discarded.
var ErrWatchdog = errors.New("runtime: watchdog killed hung task")

// ErrDomainCasualty marks an attempt killed not by its own failure but by
// the loss of its failure domain (another task in the same domain drew a
// DomainLoss fault). Casualty attempts are retried without consuming the
// task's retry budget, mirroring mpi_jm's free requeue after a lump loss.
var ErrDomainCasualty = errors.New("runtime: failure-domain casualty")

// Task is one schedulable unit of work.
type Task struct {
	// ID identifies the task; it must be unique within a pool and is the
	// namespace of DependsOn.
	ID   int
	Name string
	// Class selects the worker class.
	Class Class
	// Slots is how many workers of the class the task occupies while
	// running (the analogue of a job's GPU count); 0 means 1.
	Slots int
	// Cost is the estimated duration in seconds used for backfill
	// planning only; 0 means one second. Estimates never affect
	// correctness, only schedule quality.
	Cost float64
	// DependsOn lists task IDs that must complete successfully before
	// this task starts. A failed dependency fails the task.
	DependsOn []int
	// Run does the work. It must honour ctx: a cancelled task should stop
	// mid-computation (the solver's CGNE loop does).
	Run func(ctx context.Context) (interface{}, error)
}

// Result is a finished task: its return value, final error, and
// lifecycle metrics.
type Result struct {
	Task    Task
	Value   interface{}
	Err     error
	Metrics TaskMetrics
}

// Config shapes a pool. The zero value is usable: worker counts are
// sized from the host CPU count.
type Config struct {
	// SolveWorkers is the solve-class width (default: NumCPU, every
	// hardware thread doubles as one GPU analogue).
	SolveWorkers int
	// ContractWorkers is the contract-class width (default: half the solve
	// width, at least one - the host cores mpi_jm overlays work onto).
	ContractWorkers int
	// MaxRetries bounds re-executions of a task after a failed attempt
	// (default 0: no retries). Failure-domain casualties do not consume
	// the budget.
	MaxRetries int
	// RetryBackoff is the first retry delay, doubled per failed attempt
	// up to MaxBackoff and jittered deterministically from the task seed
	// (default 2ms).
	RetryBackoff time.Duration
	// MaxBackoff caps the exponential retry backoff
	// (default 64*RetryBackoff).
	MaxBackoff time.Duration
	// Watchdog is the heartbeat deadline on one attempt's wall time. It
	// is not cooperative: when it fires, the attempt's context is
	// cancelled AND the attempt is abandoned immediately - its slots are
	// reclaimed and whatever the stalled Run eventually returns is
	// discarded. 0 disables the watchdog; a plan with Fault.Hang needs it.
	Watchdog time.Duration
	// Budget is the allocation budget: with WallClock set, the scheduler
	// refuses to admit tasks whose calibrated duration estimate exceeds
	// the remaining wall-clock, and drains gracefully at expiry (see
	// Budget). The zero budget is unbounded.
	Budget Budget
	// Preempt, when non-nil, lets the caller fire the drain path from
	// outside (a SIGTERM handler, an allocation-manager notice): the
	// first value received drains the pool gracefully with the received
	// string as the reason, a second value hard-cancels immediately.
	Preempt <-chan string
	// Fault is the chaos plan: seeded, typed fault injection keyed by
	// task identity (see internal/fault). The zero plan injects nothing.
	Fault fault.Plan
	// Metrics, when non-nil, receives the pool's scheduling counters,
	// attempt-duration histograms, and end-of-run utilization gauges
	// (names under "runtime."). Nil costs nothing on any path.
	Metrics *obs.Registry
	// Trace, when non-nil, records one span per execution attempt on the
	// lane of its lead worker (pid 1 = solve class, pid 2 = contract
	// class, tid = worker ID) plus scheduler instants (retries, watchdog
	// kills, domain losses, drain phases, backfills) on the control lane
	// (pid 0), exportable as Chrome trace JSON. The attempt's context
	// carries the worker-lane obs.Scope, so task bodies (the solvers) land
	// their own spans on the same lane.
	Trace *obs.Tracer
}

// Scheduling constants that no caller varies.
const (
	// queueDepthPerWorker sizes the runnable backlog (ready + running
	// tasks) Submit admits before blocking - backpressure - per worker of
	// either class.
	queueDepthPerWorker = 4
	// domainSize groups workers of a class into failure domains of this
	// many consecutive worker IDs for DomainLoss faults.
	domainSize = 2
	// defaultCost is the planning estimate in seconds for tasks with
	// Cost 0.
	defaultCost = 1.0
)

func (c Config) withDefaults() Config {
	if c.SolveWorkers <= 0 {
		c.SolveWorkers = goruntime.NumCPU()
	}
	if c.ContractWorkers <= 0 {
		c.ContractWorkers = max(c.SolveWorkers/2, 1)
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 64 * c.RetryBackoff
	}
	if c.Budget.DrainGrace <= 0 {
		c.Budget.DrainGrace = time.Second
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Fault.Validate(); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	if err := c.Budget.Validate(); err != nil {
		return err
	}
	if c.Fault.Hang > 0 && c.Watchdog <= 0 {
		return errors.New("runtime: Fault.Hang needs a Watchdog to reclaim hung slots")
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("runtime: negative MaxRetries %d", c.MaxRetries)
	}
	return nil
}

type jobState int

const (
	jobBlocked jobState = iota
	jobReady
	jobRunning
	jobDone
)

type job struct {
	t          Task
	seq        int // submission index
	state      jobState
	depsLeft   int
	dependents []*job

	submitted  time.Time
	started    time.Time     // first execution start
	estEnd     time.Time     // predicted release while running
	estDur     time.Duration // the prediction behind estEnd (estimate-error accounting)
	slots      int
	workers    []int
	attempts   int
	backfilled bool
	runTotal   time.Duration

	// injKey counts fault-draw keys consumed: it advances only when an
	// attempt materializes (success, own failure), never on a casualty,
	// so the injected-fault sequence per task is identical at any worker
	// count.
	injKey int
	// failCount counts non-casualty failed attempts; the retry budget.
	failCount int
	// injected lists the faults that materialized on this task, in order.
	injected []fault.Kind
	// attemptCancel aborts the in-flight attempt (watchdog, domain loss);
	// nil while no attempt is executing.
	attemptCancel context.CancelFunc
	// domainKilled marks the in-flight attempt as a failure-domain
	// casualty: its outcome is discarded and retried for free.
	domainKilled bool

	value interface{}
	err   error
}

// Pool is the executing job manager. Create with New, feed with Submit,
// then Close and Wait for the results and the utilization Report.
type Pool struct {
	cfg      Config
	ctx      context.Context
	cancel   context.CancelFunc
	injector *fault.Injector

	mu   sync.Mutex
	room *sync.Cond // signalled when the runnable backlog shrinks
	idle *sync.Cond // signalled when tasks finish

	jobs    map[int]*job
	order   []*job
	waiters map[int][]*job // dep ID not yet submitted -> dependents

	ready       [numClasses][]*job
	free        [numClasses]int
	freeWorkers [numClasses][]int
	runningSet  map[*job]struct{}

	unfinished int
	closed     bool

	// Allocation-budget state: the allocation clock starts at New; the
	// estimator calibrates admission decisions online; drainLevel walks
	// drainNone -> drainSoft -> drainHard (see budget.go).
	t0          time.Time
	est         estimator
	drainLevel  drainPhase
	drainReason string
	drainedAt   time.Duration
	hardCh      chan struct{} // closed at hard cancel; unblocks retry backoff
	budgetTimer *time.Timer
	graceTimer  *time.Timer

	// Observability: the control-lane trace scope, the metric instruments
	// resolved once at New (all nil-safe no-ops without a registry), and
	// the completed-attempt segments behind the live utilization timeline.
	trace    obs.Scope
	met      poolMetrics
	segments []segment

	firstStart       time.Time
	lastEnd          time.Time
	busy             [numClasses]time.Duration
	failedAttempts   int
	backfills        int
	faults           fault.Counts
	recoveredPanics  int
	watchdogKills    int
	organicKills     int
	domainCasualties int
}

// nameTraceLanes labels the trace's process/thread lanes after the
// pid/tid convention: pid 0 scheduler, one pid per worker class, one
// thread per worker. A nil tracer is a no-op.
func nameTraceLanes(tr *obs.Tracer, solveWorkers, contractWorkers int) {
	if tr == nil {
		return
	}
	tr.SetProcessName(controlPID, "scheduler")
	tr.SetProcessName(classPID(Solve), "solve workers")
	tr.SetProcessName(classPID(Contract), "contract workers")
	for w := 0; w < solveWorkers; w++ {
		tr.SetThreadName(classPID(Solve), w, fmt.Sprintf("solve %d", w))
	}
	for w := 0; w < contractWorkers; w++ {
		tr.SetThreadName(classPID(Contract), w, fmt.Sprintf("contract %d", w))
	}
}

// New creates a pool. Cancelling ctx aborts in-flight tasks (their Run
// contexts are children of it) and fails everything not yet finished.
func New(ctx context.Context, cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj, err := fault.NewInjector(cfg.Fault)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	pctx, cancel := context.WithCancel(ctx)
	p := &Pool{
		cfg:        cfg,
		ctx:        pctx,
		cancel:     cancel,
		injector:   inj,
		jobs:       map[int]*job{},
		waiters:    map[int][]*job{},
		runningSet: map[*job]struct{}{},
		t0:         time.Now(),
		hardCh:     make(chan struct{}),
	}
	p.room = sync.NewCond(&p.mu)
	p.idle = sync.NewCond(&p.mu)
	p.trace = obs.NewScope(cfg.Trace, controlPID, 0)
	p.met = newPoolMetrics(cfg.Metrics)
	nameTraceLanes(cfg.Trace, cfg.SolveWorkers, cfg.ContractWorkers)
	p.free[Solve] = cfg.SolveWorkers
	p.free[Contract] = cfg.ContractWorkers
	p.freeWorkers[Solve] = make([]int, cfg.SolveWorkers)
	for i := range p.freeWorkers[Solve] {
		p.freeWorkers[Solve][i] = i
	}
	p.freeWorkers[Contract] = make([]int, cfg.ContractWorkers)
	for i := range p.freeWorkers[Contract] {
		p.freeWorkers[Contract][i] = i
	}
	// Wake blocked Submit/Wait callers when the pool is cancelled.
	go func() {
		<-pctx.Done()
		p.mu.Lock()
		p.room.Broadcast()
		p.idle.Broadcast()
		p.mu.Unlock()
	}()
	// The allocation clock: at WallClock the pool drains itself, exactly
	// as if the batch system had reclaimed the nodes. The drain reads the
	// timer under p.mu, and may already be running when AfterFunc returns.
	if cfg.Budget.Enabled() {
		p.mu.Lock()
		p.budgetTimer = time.AfterFunc(cfg.Budget.WallClock, func() { p.Drain("budget expired") })
		p.mu.Unlock()
	}
	// External preemption notices land on the same drain path.
	if cfg.Preempt != nil {
		go func() {
			select {
			case reason, ok := <-cfg.Preempt:
				if !ok {
					return
				}
				if reason == "" {
					reason = "preempted"
				}
				p.Drain(reason)
			case <-pctx.Done():
				return
			}
			select {
			case _, ok := <-cfg.Preempt:
				if ok {
					p.hardCancel()
				}
			case <-pctx.Done():
			}
		}()
	}
	return p, nil
}

func (p *Pool) classWidth(c Class) int {
	if c == Solve {
		return p.cfg.SolveWorkers
	}
	return p.cfg.ContractWorkers
}

func (p *Pool) runnableLocked() int {
	n := len(p.runningSet)
	for c := Class(0); c < numClasses; c++ {
		n += len(p.ready[c])
	}
	return n
}

// Submit enqueues a task. It blocks while the runnable backlog is full
// (backpressure); dependencies may reference tasks submitted earlier or -
// as long as backpressure permits - later.
func (p *Pool) Submit(t Task) error {
	if t.Run == nil {
		return errors.New("runtime: task without Run")
	}
	if t.Class != Solve && t.Class != Contract {
		return fmt.Errorf("runtime: task %d has unknown class %d", t.ID, int(t.Class))
	}
	if t.Slots <= 0 {
		t.Slots = 1
	}
	for _, dep := range t.DependsOn {
		if dep == t.ID {
			return fmt.Errorf("runtime: task %d depends on itself", t.ID)
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if w := p.classWidth(t.Class); t.Slots > w {
		return fmt.Errorf("runtime: task %d needs %d slots but class %v has %d workers",
			t.ID, t.Slots, t.Class, w)
	}
	depth := queueDepthPerWorker * (p.cfg.SolveWorkers + p.cfg.ContractWorkers)
	for !p.closed && p.ctx.Err() == nil && p.runnableLocked() >= depth {
		p.room.Wait()
	}
	if p.closed {
		return errors.New("runtime: submit on closed pool")
	}
	if err := p.ctx.Err(); err != nil {
		return err
	}
	if _, dup := p.jobs[t.ID]; dup {
		return fmt.Errorf("runtime: duplicate task ID %d", t.ID)
	}

	j := &job{t: t, seq: len(p.order), slots: t.Slots, submitted: time.Now()}
	p.jobs[t.ID] = j
	p.order = append(p.order, j)
	p.unfinished++

	var depErr error
	for _, dep := range t.DependsOn {
		if d, ok := p.jobs[dep]; ok {
			if d.state == jobDone {
				if d.err != nil && depErr == nil {
					depErr = fmt.Errorf("runtime: dependency %d (%s) failed: %w", d.t.ID, d.t.Name, d.err)
				}
				continue
			}
			d.dependents = append(d.dependents, j)
			j.depsLeft++
		} else {
			p.waiters[dep] = append(p.waiters[dep], j)
			j.depsLeft++
		}
	}
	// Earlier submissions waiting for this ID.
	if ws := p.waiters[t.ID]; len(ws) > 0 {
		j.dependents = append(j.dependents, ws...)
		delete(p.waiters, t.ID)
	}
	if depErr != nil {
		p.finishLocked(j, nil, depErr, false)
		return nil
	}
	// Admission control at the door: a draining pool starts nothing new,
	// and a budgeted pool refuses outright any task whose calibrated
	// estimate already exceeds the remaining allocation - remaining time
	// only shrinks, so the refusal could never have been reversed.
	if p.drainLevel > drainNone {
		p.finishLocked(j, nil, fmt.Errorf("%w (draining: %s)", ErrRefused, p.drainReason), false)
		return nil
	}
	if p.cfg.Budget.Enabled() {
		if est := p.est.predict(t.Class, p.nominalCost(j)); est > p.remainingLocked(time.Now()) {
			p.finishLocked(j, nil, fmt.Errorf("%w: estimated %v exceeds remaining allocation",
				ErrRefused, est.Round(time.Millisecond)), false)
			return nil
		}
	}
	if j.depsLeft == 0 {
		p.enqueueLocked(j)
	}
	p.dispatchLocked()
	return nil
}

// enqueueLocked inserts a job into its class's ready queue, keeping the
// queue in submission order so head-of-line semantics are deterministic.
func (p *Pool) enqueueLocked(j *job) {
	j.state = jobReady
	q := p.ready[j.t.Class]
	i := sort.Search(len(q), func(k int) bool { return q[k].seq > j.seq })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = j
	p.ready[j.t.Class] = q
}

// Close declares the submission stream complete. Tasks blocked on
// dependencies that were never submitted fail immediately.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.failDanglingLocked()
	p.idle.Broadcast()
}

// failDanglingLocked fails every job waiting on a dependency ID that can
// no longer arrive.
func (p *Pool) failDanglingLocked() {
	for id, ws := range p.waiters {
		for _, j := range ws {
			if j.state == jobBlocked && j.err == nil {
				j.err = fmt.Errorf("runtime: task %d depends on task %d, which was never submitted",
					j.t.ID, id)
			}
		}
	}
	p.waiters = map[int][]*job{}
	for _, j := range p.order {
		if j.state == jobBlocked && j.err != nil {
			p.finishLocked(j, nil, j.err, false)
		}
	}
}

// Wait blocks until every submitted task has finished (Close must have
// been called, or the context cancelled) and returns the results in
// submission order, the utilization report, and the first task error in
// submission order, if any. The pool is dead afterwards.
func (p *Pool) Wait() ([]Result, Report, error) {
	p.mu.Lock()
	for {
		if p.ctx.Err() != nil {
			// Cancelled: nothing new starts; fail everything not running.
			p.closed = true
			p.drainCancelledLocked()
			if len(p.runningSet) == 0 && p.unfinished == 0 {
				break
			}
		} else if p.closed {
			if p.unfinished == 0 {
				break
			}
			if len(p.runningSet) == 0 && p.readyEmptyLocked() {
				// The remaining blocked tasks form a dependency cycle.
				for _, j := range p.order {
					if j.state == jobBlocked {
						p.finishLocked(j, nil,
							fmt.Errorf("runtime: task %d blocked by a dependency cycle", j.t.ID), false)
					}
				}
				continue
			}
		}
		p.idle.Wait()
	}
	p.stopTimersLocked()
	results, rep := p.collectLocked()
	p.mu.Unlock()
	p.cancel()

	// Refused and stranded tasks are not failures: the allocation ended
	// before they could run (or finish), which is the drain working as
	// designed - a journaled campaign picks them up next run.
	var firstErr error
	for _, r := range results {
		if r.Err != nil && !errors.Is(r.Err, ErrRefused) && !errors.Is(r.Err, ErrStranded) {
			firstErr = fmt.Errorf("runtime: task %d (%s): %w", r.Task.ID, r.Task.Name, r.Err)
			break
		}
	}
	return results, rep, firstErr
}

func (p *Pool) readyEmptyLocked() bool {
	for c := Class(0); c < numClasses; c++ {
		if len(p.ready[c]) > 0 {
			return false
		}
	}
	return true
}

// drainCancelledLocked fails every ready or blocked job after the pool
// context was cancelled.
func (p *Pool) drainCancelledLocked() {
	err := p.ctx.Err()
	for c := Class(0); c < numClasses; c++ {
		q := p.ready[c]
		p.ready[c] = nil
		for _, j := range q {
			j.state = jobBlocked // finishLocked path for never-started jobs
			p.finishLocked(j, nil, err, false)
		}
	}
	for _, j := range p.order {
		if j.state == jobBlocked {
			p.finishLocked(j, nil, err, false)
		}
	}
}

// Run executes a batch: submit every task in order, close, wait. Task
// dependencies must stay within the batch; like cluster.Run, dangling
// references are rejected up front.
func Run(ctx context.Context, cfg Config, tasks []Task) ([]Result, Report, error) {
	ids := make(map[int]bool, len(tasks))
	for _, t := range tasks {
		if ids[t.ID] {
			return nil, Report{}, fmt.Errorf("runtime: duplicate task ID %d", t.ID)
		}
		ids[t.ID] = true
	}
	for _, t := range tasks {
		for _, dep := range t.DependsOn {
			if !ids[dep] {
				return nil, Report{}, fmt.Errorf("runtime: task %d depends on unknown task %d", t.ID, dep)
			}
		}
	}
	p, err := New(ctx, cfg)
	if err != nil {
		return nil, Report{}, err
	}
	for _, t := range tasks {
		if err := p.Submit(t); err != nil {
			p.Close()
			//femtolint:ignore errdrop Wait only drains in-flight tasks here; the Submit error below is the one the caller must see
			p.Wait()
			return nil, Report{}, err
		}
	}
	p.Close()
	return p.Wait()
}

// costOf is the planning estimate for a job's next attempt. Under a
// budget it is the estimator's calibrated prediction, so both backfill
// planning and admission control sharpen as attempts complete; without a
// budget it is the raw nominal cost, preserving the documented contract
// that estimates steer schedule quality only.
func (p *Pool) costOf(j *job) time.Duration {
	if p.cfg.Budget.Enabled() {
		return p.est.predict(j.t.Class, p.nominalCost(j))
	}
	return time.Duration(p.nominalCost(j) * float64(time.Second))
}

// dispatchLocked starts every task the schedule admits right now.
func (p *Pool) dispatchLocked() {
	if p.ctx.Err() != nil {
		return
	}
	for c := Class(0); c < numClasses; c++ {
		for p.dispatchOneLocked(c) {
		}
	}
}

// dispatchOneLocked starts at most one task of the class: the queue head
// if it fits, otherwise the first admissible backfill candidate. A
// draining pool starts nothing; a budgeted pool first refuses queued
// tasks that can no longer fit the remaining allocation.
func (p *Pool) dispatchOneLocked(cls Class) bool {
	if p.drainLevel > drainNone {
		return false
	}
	now := time.Now()
	if p.cfg.Budget.Enabled() {
		p.admitLocked(cls, now)
	}
	q := p.ready[cls]
	if len(q) == 0 {
		return false
	}
	head := q[0]
	if head.slots <= p.free[cls] {
		p.ready[cls] = q[1:]
		p.startLocked(head, now, false)
		return true
	}
	running := p.releasesLocked(cls)
	for i, j := range q[1:] {
		if j.slots > p.free[cls] {
			continue
		}
		if backfillOK(now, p.free[cls], head.slots, j.slots, p.costOf(j), running) {
			p.ready[cls] = append(q[:i+1:i+1], q[i+2:]...)
			p.startLocked(j, now, true)
			return true
		}
	}
	return false
}

// releasesLocked lists the predicted slot releases of the class's
// running tasks, ordered by (time, width) so that the backfill planner
// never sees the randomized iteration order of the running set.
func (p *Pool) releasesLocked(cls Class) []release {
	var rs []release
	for j := range p.runningSet {
		if j.t.Class == cls {
			rs = append(rs, release{at: j.estEnd, slots: j.slots})
		}
	}
	sort.Slice(rs, func(i, k int) bool {
		if !rs[i].at.Equal(rs[k].at) {
			return rs[i].at.Before(rs[k].at)
		}
		return rs[i].slots < rs[k].slots
	})
	return rs
}

func (p *Pool) startLocked(j *job, now time.Time, backfilled bool) {
	cls := j.t.Class
	p.free[cls] -= j.slots
	j.workers = append([]int(nil), p.freeWorkers[cls][:j.slots]...)
	p.freeWorkers[cls] = p.freeWorkers[cls][j.slots:]
	j.state = jobRunning
	if j.started.IsZero() {
		j.started = now
	}
	j.estDur = p.costOf(j)
	j.estEnd = now.Add(j.estDur)
	j.backfilled = backfilled
	if backfilled {
		p.backfills++
		p.met.backfills.Inc()
		p.trace.Instant("sched", "backfill", map[string]interface{}{
			"task": j.t.ID, "slots": j.slots,
		})
	}
	if p.firstStart.IsZero() || now.Before(p.firstStart) {
		p.firstStart = now
	}
	p.runningSet[j] = struct{}{}
	go p.execute(j)
}

// retryDelay is the backoff before re-running a task after its n-th
// failed attempt: RetryBackoff doubled per failure, capped at MaxBackoff,
// scaled by a deterministic jitter factor in [0.5, 1.5) derived from the
// fault seed and the task identity - so a retry schedule is reproducible
// and pinned by tests, yet distinct tasks do not retry in lockstep.
func (p *Pool) retryDelay(taskID, failCount int) time.Duration {
	return BackoffDelay(p.cfg.RetryBackoff, p.cfg.MaxBackoff, p.cfg.Fault.Seed, int64(taskID), failCount)
}

// BackoffDelay is the repo's one capped-jittered-exponential backoff:
// base doubled per failure, capped at max, scaled by a deterministic
// jitter factor in [0.5, 1.5) derived from (seed, key, failCount). The
// pool's task retries and the wire layer's retransmit/reconnect paths
// share it, so every backoff schedule in the tree is reproducible from
// identity keys alone.
func BackoffDelay(base, max time.Duration, seed, key int64, failCount int) time.Duration {
	d := base
	for i := 1; i < failCount && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	jitter := 0.5 + fault.Uniform(seed^backoffSalt, key, int64(failCount))
	return time.Duration(float64(d) * jitter)
}

// backoffSalt decorrelates backoff jitter from fault draws sharing the
// same seed.
const backoffSalt = 0x6261636b // "back"

// taskLabel names a task in trace spans.
func taskLabel(t Task) string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("task %d", t.ID)
}

// errLabel renders an attempt error for trace args ("" on success).
func errLabel(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// attemptOutcome carries one execution attempt's result from the attempt
// goroutine to the supervising execute loop.
type attemptOutcome struct {
	value    interface{}
	err      error
	panicked bool
}

// runAttempt executes one attempt in its own goroutine - the panic
// isolation boundary - applying the drawn fault: Panic crashes before the
// work, Hang stalls until the attempt context dies, and
// Transient/Corrupt/DomainLoss override the outcome after the work so the
// materialized fault sequence is independent of scheduling.
func (p *Pool) runAttempt(j *job, runCtx context.Context, fk fault.Kind, ch chan<- attemptOutcome) {
	defer func() {
		if r := recover(); r != nil {
			ch <- attemptOutcome{err: fmt.Errorf("%w: %v", ErrPanic, r), panicked: true}
		}
	}()
	switch fk {
	case fault.Panic:
		panic(fault.Error(fault.Panic))
	case fault.Hang:
		// The injected hang never returns on its own; it stops when the
		// watchdog, a domain loss or pool shutdown cancels the attempt.
		<-runCtx.Done()
		ch <- attemptOutcome{err: fault.Error(fault.Hang)}
		return
	}
	v, err := j.t.Run(runCtx)
	switch fk {
	case fault.Transient:
		v, err = nil, fault.Error(fault.Transient)
	case fault.Corrupt:
		// The result came back damaged; the runtime detects it (the live
		// analogue of an hio checksum mismatch), discards the value and
		// fails the attempt.
		v, err = nil, fault.Error(fault.Corrupt)
	case fault.DomainLoss:
		v, err = nil, fault.Error(fault.DomainLoss)
	}
	ch <- attemptOutcome{value: v, err: err}
}

// execute supervises a job's attempts outside the lock: fault draws,
// watchdog, and bounded capped-backoff retry.
func (p *Pool) execute(j *job) {
	for {
		runCtx, cancel := context.WithCancel(p.ctx)

		p.mu.Lock()
		j.attempts++
		attempt := j.attempts
		j.domainKilled = false
		j.attemptCancel = cancel
		lead := 0
		if len(j.workers) > 0 {
			lead = j.workers[0]
		}
		fk := p.injector.Draw(j.t.ID, j.injKey+1)
		drawn := fk
		if fk == fault.Preempt {
			// The allocation is preempted at this injected instant: the
			// whole pool drains, but the drawing attempt itself is not a
			// failure - it races the grace period like every other
			// in-flight attempt.
			p.drainLocked("preempt fault")
			fk = fault.None
		}
		p.mu.Unlock()

		// The attempt's span lives on its lead worker's lane, and the
		// attempt context carries the same scope so the task body (the
		// solver) lands its spans there too.
		attemptScope := p.trace.With(classPID(j.t.Class), lead)
		span := attemptScope.Begin("attempt", taskLabel(j.t), map[string]interface{}{
			"task": j.t.ID, "attempt": attempt, "slots": j.slots,
		})
		runCtx = obs.WithScope(runCtx, attemptScope)

		t0 := time.Now()
		ch := make(chan attemptOutcome, 1)
		go p.runAttempt(j, runCtx, fk, ch)

		var out attemptOutcome
		watchdogFired := false
		if p.cfg.Watchdog > 0 {
			wd := time.NewTimer(p.cfg.Watchdog)
			select {
			case out = <-ch:
				wd.Stop()
			case <-wd.C:
				// Abandon the attempt: cancel its context so a
				// cooperative (or injected) hang unwinds, reclaim the
				// slots now, and discard whatever the stalled goroutine
				// eventually sends into the buffered channel.
				cancel()
				watchdogFired = true
				out = attemptOutcome{err: fmt.Errorf("%w (deadline %v)", ErrWatchdog, p.cfg.Watchdog)}
			}
		} else {
			out = <-ch
		}
		cancel()
		dt := time.Since(t0)
		span.EndWith(map[string]interface{}{"err": errLabel(out.err)})
		p.met.attempts.Inc()
		p.met.attemptSeconds.Observe(dt.Seconds())

		p.mu.Lock()
		j.attemptCancel = nil
		j.runTotal += dt
		p.busy[j.t.Class] += time.Duration(j.slots) * dt
		p.segments = append(p.segments, segment{
			class:      j.t.Class,
			start:      t0.Sub(p.t0),
			end:        t0.Add(dt).Sub(p.t0),
			slots:      j.slots,
			backfilled: j.backfilled,
		})

		casualty := j.domainKilled
		value, err := out.value, out.err
		if casualty {
			// The attempt died with its failure domain: discard its
			// outcome (even a success - the domain took the result with
			// it) and retry without consuming the budget or the fault key.
			value, err = nil, ErrDomainCasualty
			p.domainCasualties++
			p.failedAttempts++
			p.met.domainCasualties.Inc()
			p.met.failures.Inc()
		} else {
			// A watchdog kill of an attempt that drew no hang is organic:
			// the host, not the plan, held the attempt past the deadline.
			// It is a failure like any other and spends retry budget (a
			// task that really hangs must still end), but the fault it
			// drew never materialized, so the draw is neither counted nor
			// used up - the retry draws it again, and the injected
			// sequence stays a function of the plan alone.
			organic := watchdogFired && fk != fault.Hang
			if !organic {
				j.injKey++
				if drawn != fault.None {
					p.faults.Add(drawn)
					j.injected = append(j.injected, drawn)
				}
			}
			if out.panicked {
				p.recoveredPanics++
				p.met.recoveredPanics.Inc()
			}
			if watchdogFired {
				p.watchdogKills++
				if organic {
					p.organicKills++
				}
				p.met.watchdogKills.Inc()
				p.trace.Instant("sched", "watchdog-kill", map[string]interface{}{
					"task": j.t.ID, "attempt": attempt,
				})
			}
			if err != nil {
				j.failCount++
				p.failedAttempts++
				p.met.failures.Inc()
			} else {
				// A clean completion calibrates the class's cost
				// estimates for admission control and backfill planning.
				p.est.observe(j.t.Class, p.nominalCost(j), j.estDur, dt)
			}
			if fk == fault.DomainLoss && !organic {
				p.killDomainLocked(j)
			}
		}

		// Past the grace period, a failed in-flight attempt is stranded:
		// the allocation is over, nothing retries.
		stranded := p.drainLevel >= drainHard && err != nil
		retry := !stranded && err != nil && p.ctx.Err() == nil &&
			(casualty || j.failCount <= p.cfg.MaxRetries)
		p.mu.Unlock()

		if !retry {
			if stranded {
				err = fmt.Errorf("%w: %v", ErrStranded, err)
				value = nil
			}
			p.mu.Lock()
			p.finishLocked(j, value, err, true)
			p.dispatchLocked()
			p.mu.Unlock()
			return
		}
		if !casualty {
			p.met.retries.Inc()
			p.trace.Instant("sched", "retry", map[string]interface{}{
				"task": j.t.ID, "failures": j.failCount,
			})
			select {
			case <-time.After(p.retryDelay(j.t.ID, j.failCount)):
			case <-p.hardCh:
			case <-p.ctx.Done():
			}
		}
		if p.ctx.Err() != nil {
			p.mu.Lock()
			p.finishLocked(j, nil, p.ctx.Err(), true)
			p.dispatchLocked()
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		if p.drainLevel >= drainHard {
			// Hard cancel arrived while this task waited out its retry
			// backoff: its slots are still held, the allocation is over.
			p.finishLocked(j, nil, fmt.Errorf("%w: %v", ErrStranded, err), true)
			p.dispatchLocked()
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}

// killDomainLocked kills the in-flight attempts of every running task
// sharing a failure domain with j: the paper's MPI_Abort-takes-down-the-
// lump blast radius. Victims retry for free (see ErrDomainCasualty).
func (p *Pool) killDomainLocked(j *job) {
	cls := j.t.Class
	domains := map[int]bool{}
	for _, w := range j.workers {
		domains[w/domainSize] = true
	}
	for r := range p.runningSet {
		if r == j || r.t.Class != cls || r.attemptCancel == nil || r.domainKilled {
			continue
		}
		hit := false
		for _, w := range r.workers {
			if domains[w/domainSize] {
				hit = true
				break
			}
		}
		if hit {
			r.domainKilled = true
			r.attemptCancel()
			p.trace.Instant("sched", "domain-loss", map[string]interface{}{
				"task": j.t.ID, "victim": r.t.ID,
			})
		}
	}
}

// finishLocked retires a job: releases its slots, records the result,
// unblocks (or, on error, cascades failure to) its dependents.
func (p *Pool) finishLocked(j *job, value interface{}, err error, wasRunning bool) {
	if j.state == jobDone {
		return
	}
	now := time.Now()
	if wasRunning {
		// Return the slots; j.workers stays as the TaskMetrics record.
		cls := j.t.Class
		p.free[cls] += len(j.workers)
		p.freeWorkers[cls] = append(p.freeWorkers[cls], j.workers...)
		delete(p.runningSet, j)
		if now.After(p.lastEnd) {
			p.lastEnd = now
		}
	}
	j.state = jobDone
	j.value = value
	j.err = err
	p.unfinished--
	for _, d := range j.dependents {
		if d.state != jobBlocked {
			continue
		}
		if err != nil {
			if d.err == nil {
				d.err = fmt.Errorf("runtime: dependency %d (%s) failed: %w", j.t.ID, j.t.Name, err)
			}
			p.finishLocked(d, nil, d.err, false)
			continue
		}
		d.depsLeft--
		if d.depsLeft == 0 {
			p.enqueueLocked(d)
		}
	}
	p.room.Broadcast()
	p.idle.Broadcast()
}

// collectLocked assembles the submission-ordered results and the report.
func (p *Pool) collectLocked() ([]Result, Report) {
	rep := Report{
		SolveWorkers:     p.cfg.SolveWorkers,
		ContractWorkers:  p.cfg.ContractWorkers,
		Tasks:            len(p.order),
		FailedAttempts:   p.failedAttempts,
		Backfills:        p.backfills,
		SolveBusy:        p.busy[Solve],
		ContractBusy:     p.busy[Contract],
		Faults:           p.faults,
		RecoveredPanics:  p.recoveredPanics,
		WatchdogKills:    p.watchdogKills,
		OrganicKills:     p.organicKills,
		DomainCasualties: p.domainCasualties,
	}
	results := make([]Result, len(p.order))
	started := 0
	var waitSum time.Duration
	for i, j := range p.order {
		m := TaskMetrics{
			ID:         j.t.ID,
			Name:       j.t.Name,
			Class:      j.t.Class,
			Slots:      j.slots,
			Attempts:   j.attempts,
			Run:        j.runTotal,
			Workers:    j.workers,
			Backfilled: j.backfilled,
			Injected:   j.injected,
		}
		if !j.started.IsZero() {
			m.QueueWait = j.started.Sub(j.submitted)
			started++
			waitSum += m.QueueWait
			if m.QueueWait > rep.MaxQueueWait {
				rep.MaxQueueWait = m.QueueWait
			}
			p.met.queueWaitSeconds.Observe(m.QueueWait.Seconds())
		}
		switch {
		case j.err == nil:
			rep.Succeeded++
		case errors.Is(j.err, ErrRefused):
			rep.Refused++
		case errors.Is(j.err, ErrStranded):
			rep.Stranded++
		default:
			rep.Failed++
		}
		results[i] = Result{Task: j.t, Value: j.value, Err: j.err, Metrics: m}
		rep.PerTask = append(rep.PerTask, m)
	}
	rep.Admitted = started
	if started > 0 {
		rep.MeanQueueWait = waitSum / time.Duration(started)
	}
	if !p.firstStart.IsZero() && p.lastEnd.After(p.firstStart) {
		rep.Wall = p.lastEnd.Sub(p.firstStart)
		rep.SolveUtil = float64(p.busy[Solve]) / (float64(p.cfg.SolveWorkers) * float64(rep.Wall))
		rep.ContractUtil = float64(p.busy[Contract]) / (float64(p.cfg.ContractWorkers) * float64(rep.Wall))
		rep.Timeline = buildTimeline(p.segments,
			p.firstStart.Sub(p.t0), p.lastEnd.Sub(p.t0),
			p.cfg.SolveWorkers, p.cfg.ContractWorkers)
	}
	rep.Drained = p.drainLevel > drainNone
	rep.DrainReason = p.drainReason
	rep.DrainedAt = p.drainedAt
	rep.EstimateErr = p.est.meanErr()
	if p.cfg.Budget.Enabled() {
		rep.BudgetWall = p.cfg.Budget.WallClock
		used := time.Since(p.t0)
		if !p.lastEnd.IsZero() {
			used = p.lastEnd.Sub(p.t0)
		}
		rep.BudgetUsed = used
		rep.BudgetUtil = float64(used) / float64(p.cfg.Budget.WallClock)
	}
	// End-of-run aggregates into the registry (all no-ops without one).
	reg := p.cfg.Metrics
	reg.Gauge("runtime.solve_util").Set(rep.SolveUtil)
	reg.Gauge("runtime.contract_util").Set(rep.ContractUtil)
	reg.Gauge("runtime.wall_seconds").Set(rep.Wall.Seconds())
	reg.Counter("runtime.tasks").Add(int64(rep.Tasks))
	reg.Counter("runtime.tasks_succeeded").Add(int64(rep.Succeeded))
	reg.Counter("runtime.tasks_failed").Add(int64(rep.Failed))
	p.met.refused.Add(int64(rep.Refused))
	return results, rep
}
