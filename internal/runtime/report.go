package runtime

import (
	"fmt"
	"strings"
	"time"

	"femtoverse/internal/fault"
)

// TaskMetrics is the per-task lifecycle record the job manager keeps for
// every task it executed: the live analogue of cluster.TaskStat.
type TaskMetrics struct {
	ID    int
	Name  string
	Class Class
	Slots int
	// Attempts counts executions: 1 means the task succeeded (or failed
	// terminally) on its first run, larger values mean retries happened.
	Attempts int
	// QueueWait is the time from submission to the first execution start.
	QueueWait time.Duration
	// Run is the total execution time over all attempts.
	Run time.Duration
	// Workers lists the worker slots of the task's class that ran the
	// task (len == Slots). Empty for tasks that never started.
	Workers []int
	// Backfilled marks a task started out of order through a hole left by
	// a wider task waiting at the head of the queue.
	Backfilled bool
	// Injected lists the faults that materialized on this task, in
	// order. Because draws are keyed by task identity, this sequence is
	// identical at any worker count for a given fault plan.
	Injected []fault.Kind
}

// Report summarises a pool run with the same vocabulary as the
// discrete-event simulator's cluster.Report, so the real executor and the
// model can be cross-checked against each other.
type Report struct {
	SolveWorkers    int
	ContractWorkers int
	// Wall is the busy window: first task start to last task end
	// (the simulator's makespan minus startup).
	Wall time.Duration
	// Tasks counts submitted tasks;
	// Succeeded + Failed + Refused + Stranded == Tasks.
	Tasks     int
	Succeeded int
	Failed    int
	// Admitted counts tasks that started at least one attempt. Refused
	// counts tasks the admission controller never started because their
	// estimate exceeded the remaining allocation (or the pool was
	// draining); refused work is deliberately left for the next
	// allocation and is never counted as failed. Stranded counts tasks
	// whose in-flight attempt was killed by the hard-cancel phase of a
	// drain - the work the allocation's end actually wasted.
	Admitted int
	Refused  int
	Stranded int
	// Drained reports whether the pool entered the drain path, with
	// DrainReason ("budget expired", a signal name, "preempt fault", ...)
	// and DrainedAt the allocation-elapsed instant it began.
	Drained     bool
	DrainReason string
	DrainedAt   time.Duration
	// BudgetWall / BudgetUsed / BudgetUtil describe wall-clock budget
	// consumption: the configured allocation, the span from allocation
	// start to the last task end, and their ratio (may exceed 1 when the
	// drain grace runs past the wall). Zero without a budget.
	BudgetWall time.Duration
	BudgetUsed time.Duration
	BudgetUtil float64
	// EstimateErr is the mean relative error |observed-predicted|/predicted
	// of the duration estimates over completed attempts: how honest the
	// admission controller's cost model was this run.
	EstimateErr float64
	// FailedAttempts counts failed executions (injected failures,
	// watchdog kills, task errors, casualties) including ones that were
	// retried; the analogue of cluster.Report.Failures.
	FailedAttempts int
	// Backfills counts out-of-order starts through EASY backfilling.
	Backfills int
	// Faults tallies materialized injected faults by kind; deterministic
	// for a given plan at any worker count.
	Faults fault.Counts
	// RecoveredPanics counts task panics caught at the worker isolation
	// boundary (the worker survived, the task failed).
	RecoveredPanics int
	// WatchdogKills counts attempts abandoned past the heartbeat
	// deadline.
	WatchdogKills int
	// OrganicKills is how many of the WatchdogKills hit an attempt that
	// had drawn no hang: the host held it past the deadline (a loaded
	// machine, a descheduled goroutine). Such a kill is among the
	// FailedAttempts and spends retry budget, but leaves Faults and the
	// task's injected sequence alone, so those stay functions of the plan;
	// WatchdogKills - OrganicKills is the number of injected hangs.
	OrganicKills int
	// DomainCasualties counts attempts killed by the loss of their
	// failure domain rather than their own failure; casualties retry
	// without consuming the task's budget.
	DomainCasualties int
	// JournalCheckpoints and SolverRestarts are filled in by campaign
	// drivers that run on this pool: completed-work checkpoints written
	// to the crash-recovery journal, and precision-escalation restarts
	// the solvers performed (solver.Stats.Restarts summed).
	JournalCheckpoints int
	SolverRestarts     int
	// SolveBusy / ContractBusy integrate busy worker-seconds per class.
	SolveBusy    time.Duration
	ContractBusy time.Duration
	// SolveUtil / ContractUtil are busy fractions of the class's workers
	// over the busy window: the paper's utilization metric (Fig. 6).
	SolveUtil    float64
	ContractUtil float64
	// Timeline is the live per-class utilization timeline assembled from
	// completed attempts: bucketed busy/backfill fractions over the busy
	// window, renderable as ASCII (Timeline.Render) and cross-checkable
	// against the busy integrals above and the exported trace.
	Timeline Timeline
	// Queue-wait statistics over all started tasks.
	MeanQueueWait time.Duration
	MaxQueueWait  time.Duration
	// PerTask holds every task's lifecycle record in submission order.
	PerTask []TaskMetrics
}

// CheckConservation verifies the report's accounting identities: every
// submitted task is exactly one of succeeded, failed, refused or
// stranded; stranded work implies a drain happened (the hard-cancel
// phase is the only thing that strands); and the admitted count covers
// at least the outcomes that require a started attempt (success or being
// killed mid-flight) without exceeding the task count. The scenario soak
// harness holds every run, chaotic or not, to these invariants.
func (r Report) CheckConservation() error {
	if r.Succeeded+r.Failed+r.Refused+r.Stranded != r.Tasks {
		return fmt.Errorf("runtime: outcome counts %d ok + %d failed + %d refused + %d stranded != %d tasks",
			r.Succeeded, r.Failed, r.Refused, r.Stranded, r.Tasks)
	}
	if r.Stranded > 0 && !r.Drained {
		return fmt.Errorf("runtime: %d tasks stranded without a drain event", r.Stranded)
	}
	if r.Admitted > r.Tasks {
		return fmt.Errorf("runtime: %d admitted > %d tasks", r.Admitted, r.Tasks)
	}
	if r.Admitted < r.Succeeded+r.Stranded {
		return fmt.Errorf("runtime: %d admitted < %d succeeded + %d stranded",
			r.Admitted, r.Succeeded, r.Stranded)
	}
	return nil
}

// String renders a human-readable summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime: %d tasks (%d ok, %d failed) on %d solve + %d contract workers\n",
		r.Tasks, r.Succeeded, r.Failed, r.SolveWorkers, r.ContractWorkers)
	fmt.Fprintf(&b, "  wall %v, solve util %.1f%%, contract util %.1f%%\n",
		r.Wall.Round(time.Millisecond), 100*r.SolveUtil, 100*r.ContractUtil)
	fmt.Fprintf(&b, "  %d backfills, %d failed attempts, queue wait mean %v max %v",
		r.Backfills, r.FailedAttempts,
		r.MeanQueueWait.Round(time.Microsecond), r.MaxQueueWait.Round(time.Microsecond))
	if r.Faults.Total() > 0 || r.RecoveredPanics > 0 || r.WatchdogKills > 0 || r.DomainCasualties > 0 {
		fmt.Fprintf(&b, "\n  chaos: %v; %d panics recovered, %d watchdog kills, %d domain casualties",
			r.Faults, r.RecoveredPanics, r.WatchdogKills, r.DomainCasualties)
	}
	if r.JournalCheckpoints > 0 || r.SolverRestarts > 0 {
		fmt.Fprintf(&b, "\n  recovery: %d journal checkpoints, %d solver restarts",
			r.JournalCheckpoints, r.SolverRestarts)
	}
	if r.Drained || r.Refused > 0 || r.Stranded > 0 {
		fmt.Fprintf(&b, "\n  drain: %d admitted, %d refused, %d stranded", r.Admitted, r.Refused, r.Stranded)
		if r.Drained {
			fmt.Fprintf(&b, " (%s at %v)", r.DrainReason, r.DrainedAt.Round(time.Millisecond))
		}
	}
	if r.BudgetWall > 0 {
		fmt.Fprintf(&b, "\n  budget: used %v of %v (%.1f%%), estimate error %.1f%%",
			r.BudgetUsed.Round(time.Millisecond), r.BudgetWall, 100*r.BudgetUtil, 100*r.EstimateErr)
	}
	return b.String()
}
