// Package fault is the deterministic chaos engine shared by the live job
// runtime (internal/runtime) and the discrete-event cluster simulator
// (internal/cluster): a seeded, typed fault plan that decides, for every
// (task, attempt) pair, whether the execution dies and how. The paper's
// job-management layer exists because at 3000+ nodes tasks fail
// constantly - GPUs drop off the bus, solves hang, whole failure domains
// (mpi_jm lumps) die together - and a scheduler can only be trusted to
// survive those modes if they can be replayed exactly.
//
// The engine's one design rule is that draws are keyed by task identity,
// not draw order: the fault assigned to attempt k of task 17 is a pure
// function of (seed, 17, k). Under a concurrent executor the order in
// which goroutines reach the coin flip is scheduler noise; keying by
// identity makes the same seed produce the same fault sequence at any
// worker count, which is what turns a chaos run into a regression test.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Kind is a fault type from the taxonomy observed in the paper's runs.
type Kind int

const (
	// None means the execution proceeds normally.
	None Kind = iota
	// Transient is a clean, detected failure: the task dies with an error
	// and can be retried immediately (node crash, file-system hiccup).
	Transient
	// Panic crashes the worker mid-task (segfault analogue); the executor
	// must isolate it so the worker class survives.
	Panic
	// Hang stalls the task forever: it stops making progress without
	// returning, and only a watchdog deadline can reclaim the slot.
	Hang
	// Corrupt completes the task but with a damaged result, the silent
	// failure mode checksums exist for; the executor must detect and
	// discard the value.
	Corrupt
	// DomainLoss kills the task and everything sharing its failure
	// domain: the paper's MPI_Abort-brings-down-the-lump behaviour.
	DomainLoss
	// Preempt ends the whole allocation early: the batch system reclaims
	// the nodes (walltime cut, higher-priority job, maintenance drain).
	// Unlike the other kinds it does not fail the drawing execution - it
	// fires the executor's drain path at the injected instant, so
	// in-flight work races the grace period and queued work is refused.
	Preempt
	// NetDrop loses one frame on the wire: the sender's transmission never
	// arrives and must be retransmitted after backoff (switch buffer
	// overrun, lossy link). A detected, recoverable fault.
	NetDrop
	// NetDelay stalls one frame for a bounded interval before delivery:
	// congestion or adaptive-routing detours. The frame arrives intact.
	NetDelay
	// NetPartition severs a link for a whole epoch: every frame - data and
	// heartbeats alike - vanishes until the coordinator declares the far
	// end dead and recovers. The fault heartbeat timeouts exist for.
	NetPartition
	// NetCorrupt damages a frame in flight: the receiver's checksum must
	// catch it and discard the frame (corruption is a detected fault,
	// never a silent wrong answer), and the sender retransmits.
	NetCorrupt

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Transient:
		return "transient"
	case Panic:
		return "panic"
	case Hang:
		return "hang"
	case Corrupt:
		return "corrupt"
	case DomainLoss:
		return "domain-loss"
	case Preempt:
		return "preempt"
	case NetDrop:
		return "net-drop"
	case NetDelay:
		return "net-delay"
	case NetPartition:
		return "net-partition"
	case NetCorrupt:
		return "net-corrupt"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// IsNet reports whether k is a network fault kind: injected per frame (or
// per link epoch, for NetPartition) on the wire rather than per task
// execution.
func (k Kind) IsNet() bool {
	switch k {
	case NetDrop, NetDelay, NetPartition, NetCorrupt:
		return true
	}
	return false
}

// ErrInjected is the base error of every injected fault; use errors.Is to
// distinguish injected chaos from organic task failures.
var ErrInjected = errors.New("fault: injected failure")

// Plan is a seeded fault schedule: per-attempt probabilities for each
// fault kind. The zero value injects nothing. The probabilities of one
// draw are mutually exclusive (a single uniform variate is partitioned),
// so their sum must stay below 1.
type Plan struct {
	// Seed fixes the whole fault sequence; two injectors with equal plans
	// agree on every draw.
	Seed int64
	// Transient, Panic, Hang, Corrupt, DomainLoss, Preempt are the
	// per-execution probabilities of each fault kind.
	Transient  float64
	Panic      float64
	Hang       float64
	Corrupt    float64
	DomainLoss float64
	Preempt    float64
	// NetDrop, NetDelay, NetPartition, NetCorrupt are the per-frame (for
	// NetPartition: per link epoch) probabilities of the network fault
	// kinds. Task executors ignore them; the wire layer and the cluster
	// twin draw them with link/frame identity keys.
	NetDrop      float64
	NetDelay     float64
	NetPartition float64
	NetCorrupt   float64
	// MaxInjections, when positive, caps how many faults one task can
	// draw: attempts past the cap run clean. Chaos tests use it to
	// guarantee every task eventually succeeds within its retry budget.
	MaxInjections int
}

// rates returns the per-kind probabilities indexed by Kind.
func (p Plan) rates() [numKinds]float64 {
	var r [numKinds]float64
	r[Transient] = p.Transient
	r[Panic] = p.Panic
	r[Hang] = p.Hang
	r[Corrupt] = p.Corrupt
	r[DomainLoss] = p.DomainLoss
	r[Preempt] = p.Preempt
	r[NetDrop] = p.NetDrop
	r[NetDelay] = p.NetDelay
	r[NetPartition] = p.NetPartition
	r[NetCorrupt] = p.NetCorrupt
	return r
}

// Total returns the summed per-execution fault probability.
func (p Plan) Total() float64 {
	return p.Transient + p.Panic + p.Hang + p.Corrupt + p.DomainLoss + p.Preempt +
		p.NetDrop + p.NetDelay + p.NetPartition + p.NetCorrupt
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool { return p.Total() > 0 }

// Validate checks the plan.
func (p Plan) Validate() error {
	r := p.rates()
	for k := Kind(1); k < numKinds; k++ {
		if r[k] < 0 || math.IsNaN(r[k]) {
			return fmt.Errorf("fault: negative %v rate %g", k, r[k])
		}
	}
	if t := p.Total(); t >= 1 {
		return fmt.Errorf("fault: total fault rate %g outside [0,1)", t)
	}
	if p.MaxInjections < 0 {
		return fmt.Errorf("fault: negative MaxInjections %d", p.MaxInjections)
	}
	return nil
}

// String renders the plan compactly.
func (p Plan) String() string {
	if !p.Enabled() {
		return "fault: none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault: seed %d,", p.Seed)
	r := p.rates()
	for k := Kind(1); k < numKinds; k++ {
		if r[k] > 0 {
			fmt.Fprintf(&b, " %v %.3g", k, r[k])
		}
	}
	if p.MaxInjections > 0 {
		fmt.Fprintf(&b, ", <=%d injections/task", p.MaxInjections)
	}
	return b.String()
}

// Counts tallies injected faults by kind; executors surface it in their
// reports so chaos runs can be compared across worker counts.
type Counts struct {
	Transient  int
	Panic      int
	Hang       int
	Corrupt    int
	DomainLoss int
	Preempt    int
	// Network fault tallies (wire layer and cluster twin).
	NetDrop      int
	NetDelay     int
	NetPartition int
	NetCorrupt   int
}

// Add records one injected fault.
func (c *Counts) Add(k Kind) {
	switch k {
	case Transient:
		c.Transient++
	case Panic:
		c.Panic++
	case Hang:
		c.Hang++
	case Corrupt:
		c.Corrupt++
	case DomainLoss:
		c.DomainLoss++
	case Preempt:
		c.Preempt++
	case NetDrop:
		c.NetDrop++
	case NetDelay:
		c.NetDelay++
	case NetPartition:
		c.NetPartition++
	case NetCorrupt:
		c.NetCorrupt++
	}
}

// Total returns the summed injected-fault count.
func (c Counts) Total() int {
	return c.Transient + c.Panic + c.Hang + c.Corrupt + c.DomainLoss + c.Preempt +
		c.NetDrop + c.NetDelay + c.NetPartition + c.NetCorrupt
}

// String renders the tally.
func (c Counts) String() string {
	s := fmt.Sprintf("%d injected (%d transient, %d panic, %d hang, %d corrupt, %d domain-loss, %d preempt",
		c.Total(), c.Transient, c.Panic, c.Hang, c.Corrupt, c.DomainLoss, c.Preempt)
	if n := c.NetDrop + c.NetDelay + c.NetPartition + c.NetCorrupt; n > 0 {
		s += fmt.Sprintf(", %d net-drop, %d net-delay, %d net-partition, %d net-corrupt",
			c.NetDrop, c.NetDelay, c.NetPartition, c.NetCorrupt)
	}
	return s + ")"
}

// Injector draws faults from a validated plan. It is stateless and safe
// for concurrent use: every draw is a pure function of its keys.
type Injector struct {
	plan  Plan
	rates [numKinds]float64
}

// NewInjector validates the plan and returns its injector. A nil injector
// is legal and never injects, so callers may keep a single code path.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Enabled() {
		return nil, nil
	}
	return &Injector{plan: p, rates: p.rates()}, nil
}

// Draw returns the fault (or None) assigned to one execution attempt of a
// task. attempt counts from 1. The result depends only on (plan, taskID,
// attempt) - never on when or where the attempt runs.
func (in *Injector) Draw(taskID, attempt int) Kind {
	if in == nil {
		return None
	}
	if in.plan.MaxInjections > 0 && attempt > in.plan.MaxInjections {
		return None
	}
	u := Uniform(in.plan.Seed, int64(taskID), int64(attempt))
	acc := 0.0
	for k := Transient; k < numKinds; k++ {
		acc += in.rates[k]
		if u < acc {
			return k
		}
	}
	return None
}

// Error returns the canonical error value for an injected fault kind,
// wrapping ErrInjected.
func Error(k Kind) error {
	if k == None {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrInjected, k)
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-mixed 64-bit permutation (Steele, Lea & Flood, OOPSLA 2014). Used
// here as a keyed hash: one round per key folds the key in, and the
// avalanche property makes neighbouring task IDs uncorrelated.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// LinkKey folds a directed link (src rank -> dst rank) into the taskID
// slot of a Draw. The coordinator is rank -1 by convention. Both the live
// wire layer and the cluster simulator's network twin must key their
// draws through this helper so the same plan yields the same fault
// sequence on both - the distributed extension of the live-vs-simulator
// crosscheck contract.
func LinkKey(src, dst int) int {
	return (src+2)*1_000_003 + (dst + 2)
}

// MsgKey folds a frame's identity - transfer id, face coordinates, and
// transmission attempt - into the attempt slot of a Draw. Attempts count
// from 1; a retransmission after an injected drop or corruption draws a
// fresh variate, so the retry loop terminates with probability one and
// replays identically on the simulated twin.
func MsgKey(xid uint64, mu, dir, attempt int) int {
	return int(splitmix64(xid<<16^uint64(mu<<8)^uint64(dir<<4)^uint64(attempt)) >> 1)
}

// Uniform hashes (seed, keys...) to a uniform variate in [0, 1). It is
// the shared deterministic randomness primitive: fault draws and retry
// jitter both derive from it, keyed by task identity.
func Uniform(seed int64, keys ...int64) float64 {
	h := splitmix64(uint64(seed))
	for _, k := range keys {
		h = splitmix64(h ^ uint64(k))
	}
	// 53 high bits -> [0,1) with full double precision.
	return float64(h>>11) / (1 << 53)
}
