package runtime

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Budget is a finite batch allocation: the wall-clock window the pool is
// allowed to occupy, and the grace it grants in-flight work once the
// window closes. The paper's job managers (METAQ, mpi_jm) live and die by
// this clock - tasks are sized against remaining wall time so the
// allocation ends with no half-finished, discarded work - and the pool
// enforces the same rule: it refuses to admit any task whose estimated
// duration exceeds the remaining budget, drains gracefully at expiry, and
// hard-cancels whatever is still running after DrainGrace.
type Budget struct {
	// WallClock is the allocation length, measured from pool creation.
	// 0 disables budget enforcement (the drain path stays available for
	// signals and injected preemptions).
	WallClock time.Duration
	// DrainGrace bounds the drain phase: once the pool starts draining -
	// budget expiry, Pool.Drain, a received preemption, or an injected
	// fault.Preempt - in-flight attempts get this long to finish before
	// their contexts are cancelled and they are recorded as stranded.
	// 0 means one second.
	DrainGrace time.Duration
}

// Enabled reports whether the budget bounds the allocation.
func (b Budget) Enabled() bool { return b.WallClock > 0 }

// Validate checks the budget.
func (b Budget) Validate() error {
	if b.WallClock < 0 {
		return fmt.Errorf("runtime: negative Budget.WallClock %v", b.WallClock)
	}
	if b.DrainGrace < 0 {
		return fmt.Errorf("runtime: negative Budget.DrainGrace %v", b.DrainGrace)
	}
	return nil
}

// ErrRefused marks a task the admission controller never started: its
// estimated duration exceeded the remaining allocation (or the pool was
// already draining when it was considered). Refused work is not failed
// work - it is work correctly left for the next allocation, and Wait does
// not surface it as an error.
var ErrRefused = errors.New("runtime: task refused by allocation budget")

// ErrStranded marks an in-flight attempt killed by the hard-cancel phase
// of a drain: the allocation ended before it could finish, and whatever
// partial work it had done is discarded. A journaled campaign re-runs
// stranded tasks on resume.
var ErrStranded = errors.New("runtime: task stranded by allocation drain")

// drainPhase orders the pool's shutdown states.
type drainPhase int

const (
	// drainNone: normal operation, admission control only.
	drainNone drainPhase = iota
	// drainSoft: no new starts; in-flight attempts may finish (and
	// retry); queued and blocked work is refused.
	drainSoft
	// drainHard: in-flight attempt contexts are cancelled; failed
	// attempts are stranded, not retried.
	drainHard
)

// estimateAlpha is the EWMA weight of the newest observation when
// refining per-class cost calibration online.
const estimateAlpha = 0.3

// estimator refines per-class task-duration estimates online. Estimates
// are seeded from the nominal planning costs (Task.Cost / defaultCost,
// in seconds) and corrected by an EWMA of the observed-over-nominal
// ratio of completed attempts, per worker class - so a campaign whose
// nominal costs are off by a constant factor converges to truthful
// admission decisions after the first few completions.
type estimator struct {
	calib  [numClasses]float64 // EWMA of observed/nominal duration ratio
	n      [numClasses]int     // observations per class
	errSum float64             // accumulated relative estimate error
	errN   int
}

// predict returns the calibrated duration estimate for a nominal cost.
func (e *estimator) predict(cls Class, nominal float64) time.Duration {
	c := 1.0
	if e.n[cls] > 0 {
		c = e.calib[cls]
	}
	return time.Duration(nominal * c * float64(time.Second))
}

// observe folds one successful attempt's measured duration into the
// class calibration and the estimate-error accounting.
func (e *estimator) observe(cls Class, nominal float64, predicted, observed time.Duration) {
	if nominal <= 0 || observed <= 0 {
		return
	}
	ratio := observed.Seconds() / nominal
	if e.n[cls] == 0 {
		e.calib[cls] = ratio
	} else {
		e.calib[cls] = (1-estimateAlpha)*e.calib[cls] + estimateAlpha*ratio
	}
	e.n[cls]++
	if predicted > 0 {
		e.errSum += math.Abs(observed.Seconds()-predicted.Seconds()) / predicted.Seconds()
		e.errN++
	}
}

// meanErr returns the mean relative error of the estimates used, over
// every observed attempt.
func (e *estimator) meanErr() float64 {
	if e.errN == 0 {
		return 0
	}
	return e.errSum / float64(e.errN)
}

// nominalCost returns a job's planning cost in seconds.
func (p *Pool) nominalCost(j *job) float64 {
	c := j.t.Cost
	if c <= 0 {
		c = defaultCost
	}
	return c
}

// remainingLocked returns the wall-clock left in the allocation. A
// draining pool has no remaining time regardless of the clock; without a
// budget the allocation is unbounded.
func (p *Pool) remainingLocked(now time.Time) time.Duration {
	if p.drainLevel > drainNone {
		return 0
	}
	if !p.cfg.Budget.Enabled() {
		return math.MaxInt64
	}
	rem := p.cfg.Budget.WallClock - now.Sub(p.t0)
	if rem < 0 {
		rem = 0
	}
	return rem
}

// admitLocked is the admission controller: it walks the class's ready
// queue and refuses every task whose calibrated estimate exceeds the
// remaining allocation. Remaining time only shrinks, so a refusal is
// final - the task could never have fit later, and reporting it refused
// now (rather than letting it sit in the queue until expiry) is what
// keeps refusal a liveness property, not a silent strand.
func (p *Pool) admitLocked(cls Class, now time.Time) {
	rem := p.remainingLocked(now)
	q := p.ready[cls]
	kept := q[:0]
	var refused []*job
	for _, j := range q {
		if p.est.predict(cls, p.nominalCost(j)) > rem {
			refused = append(refused, j)
		} else {
			kept = append(kept, j)
		}
	}
	p.ready[cls] = kept
	for _, j := range refused {
		est := p.est.predict(cls, p.nominalCost(j))
		j.state = jobBlocked
		p.finishLocked(j, nil, fmt.Errorf("%w: estimated %v exceeds remaining %v",
			ErrRefused, est.Round(time.Millisecond), rem.Round(time.Millisecond)), false)
	}
}

// Drain begins a graceful shutdown of the pool: queued and blocked tasks
// are refused, in-flight attempts keep running, and after the budget's
// DrainGrace whatever is still running is hard-cancelled and recorded as
// stranded. Drain is idempotent; the first reason wins. It is the single
// landing path shared by budget expiry, SIGTERM handling, an external
// preemption notice, and the injected fault.Preempt.
func (p *Pool) Drain(reason string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.drainLocked(reason)
}

func (p *Pool) drainLocked(reason string) {
	if p.drainLevel >= drainSoft {
		return
	}
	p.drainLevel = drainSoft
	p.drainReason = reason
	p.drainedAt = time.Since(p.t0)
	if p.budgetTimer != nil {
		// The drain is already under way; a budget expiry landing after
		// this point must not fire a second trigger into the pool.
		p.budgetTimer.Stop()
	}
	p.trace.Instant("sched", "drain-soft", map[string]interface{}{"reason": reason})
	p.refuseQueuedLocked(reason)
	p.graceTimer = time.AfterFunc(p.cfg.Budget.DrainGrace, p.hardCancel)
	p.room.Broadcast()
	p.idle.Broadcast()
}

// refuseQueuedLocked refuses every job that has not started running:
// the ready queues, the dependency-blocked jobs, and the waiters on
// never-submitted IDs. Running jobs are untouched - the drain's grace
// period is theirs.
func (p *Pool) refuseQueuedLocked(reason string) {
	for c := Class(0); c < numClasses; c++ {
		q := p.ready[c]
		p.ready[c] = nil
		for _, j := range q {
			j.state = jobBlocked
			p.finishLocked(j, nil, fmt.Errorf("%w (draining: %s)", ErrRefused, reason), false)
		}
	}
	for _, j := range p.order {
		if j.state == jobBlocked {
			p.finishLocked(j, nil, fmt.Errorf("%w (draining: %s)", ErrRefused, reason), false)
		}
	}
	p.waiters = map[int][]*job{}
}

// hardCancel ends the grace period: every in-flight attempt's context is
// cancelled, and execute records the casualties as stranded rather than
// retrying them.
func (p *Pool) hardCancel() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drainLevel >= drainHard {
		return
	}
	if p.drainLevel < drainSoft {
		// Hard cancel without a preceding soft drain (second preemption
		// notice): refuse the queues first so nothing new starts.
		p.drainLocked("hard cancel")
	}
	p.drainLevel = drainHard
	if p.graceTimer != nil {
		// Escalation has happened; the pending grace expiry (or the
		// redundant timer armed by the drainLocked call above) must not
		// re-fire hardCancel into a pool that may outlive this drain.
		p.graceTimer.Stop()
	}
	p.trace.Instant("sched", "drain-hard", nil)
	close(p.hardCh)
	for j := range p.runningSet {
		if j.attemptCancel != nil {
			j.attemptCancel()
		}
	}
}

// stopTimersLocked releases the budget and grace timers once the pool's
// outcome is decided.
func (p *Pool) stopTimersLocked() {
	if p.budgetTimer != nil {
		p.budgetTimer.Stop()
	}
	if p.graceTimer != nil {
		p.graceTimer.Stop()
	}
}
