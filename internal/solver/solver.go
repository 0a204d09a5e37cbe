// Package solver implements the Krylov solvers of the paper's workload:
// conjugate gradient on the normal equations (CGNE) of the preconditioned
// Mobius domain-wall operator, in pure double precision or in the
// production "double-half" mixed-precision scheme - sloppy inner
// arithmetic in single precision with optional 16-bit fixed-point storage
// rounding, and occasional reliable updates that recompute the true
// residual in full double precision (Clark et al., Comput. Phys. Commun.
// 181 (2010) 1517).
package solver

import (
	"errors"
	"fmt"
	"time"

	"femtoverse/internal/obs"
)

// Linear is a general (non-Hermitian) linear operator with an exact
// adjoint, the contract CGNE needs. dirac.MobiusEO, dirac.Mobius and
// dirac.Wilson all satisfy it.
type Linear interface {
	Apply(dst, src []complex128)
	ApplyDagger(dst, src []complex128)
	Size() int
}

// Linear32 is the single-precision mirror used by the sloppy inner stage.
type Linear32 interface {
	Apply(dst, src []complex64)
	ApplyDagger(dst, src []complex64)
	Size() int
}

// Normal is an operator that applies CGNE's D^dag D itself: ApplyNormal
// sets each dst[k] to ApplyDagger of Apply of src[k], to the bit, grouping
// the systems at the widths it runs natively (dirac.MobiusEO32 two to a
// pass). The solvers compose Apply and ApplyDagger for other operators.
type Normal[T complex64 | complex128] interface {
	ApplyNormal(dst, src [][]T)
}

// linear is Linear or Linear32, by element type.
type linear[T complex64 | complex128] interface {
	Apply(dst, src []T)
	ApplyDagger(dst, src []T)
	Size() int
}

// normalOf is op's normal operator: its own ApplyNormal where it has one,
// Apply then ApplyDagger through a scratch vector otherwise.
func normalOf[T complex64 | complex128](op linear[T]) Normal[T] {
	if n, ok := op.(Normal[T]); ok {
		return n
	}
	return &composed[T]{op: op, tmp: make([]T, op.Size())}
}

// composed is the normal operator of an operator without one.
type composed[T complex64 | complex128] struct {
	op  linear[T]
	tmp []T
}

func (c *composed[T]) ApplyNormal(dst, src [][]T) {
	for k := range src {
		c.op.Apply(c.tmp, src[k])
		c.op.ApplyDagger(dst[k], c.tmp)
	}
}

// Precision selects the storage/compute precision of the sloppy stage.
type Precision int

const (
	// Double runs the whole solve in double precision (no sloppy stage).
	Double Precision = iota
	// Single runs the inner iterations in float32 with double reductions.
	Single
	// Half runs the inner iterations in float32 but rounds the matvec
	// operand and result through 16-bit fixed-point storage each
	// iteration, modelling QUDA's half-precision field storage.
	Half
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case Double:
		return "double"
	case Single:
		return "single"
	case Half:
		return "half"
	default:
		return fmt.Sprintf("precision(%d)", int(p))
	}
}

// Params configures a solve. The zero value is usable: it selects the
// defaults documented on each field.
type Params struct {
	// Tol is the target relative true residual ||b - D x|| / ||b||.
	// Default 1e-8.
	Tol float64
	// MaxIter caps the number of sloppy matrix applications. Default 25000.
	MaxIter int
	// Precision selects the sloppy stage (Double disables it).
	Precision Precision
	// FlopsPerApply, if set, is the flop cost of one operator application
	// used for the Stats.Flops accounting (matvec only; BLAS-1 is added
	// with the paper's 50-100 flops/site convention by the caller).
	FlopsPerApply int64
	// MaxRestarts bounds the precision-escalation restarts of CGNEMixed:
	// when the sloppy stage diverges (non-finite residual, sloppy
	// breakdown, or stagnant reliable updates), the solve discards the
	// sloppy accumulation since the last reliable update and resumes from
	// the last reliable iterate one precision tier up (Half -> Single ->
	// Double). Default 2, exactly the tier ladder; negative disables
	// restarts and turns divergence into ErrDiverged.
	MaxRestarts int
	// StagnationWindow is how many iterations pure double CGNE may run
	// without improving its best normal-equation residual before failing
	// with ErrDiverged instead of burning the rest of MaxIter. Default
	// MaxIter/10 (at least 100); negative disables.
	StagnationWindow int
	// Obs, when enabled, receives the solve's trace events on the caller's
	// lane: a "cgne"/"cgne-mixed" span over the whole solve, a "cg-block"
	// span per reliable-update segment, and instants for reliable updates
	// and precision-escalation restarts. The zero Scope is a no-op, and
	// campaign drivers fill it from the attempt context (obs.ScopeFrom) so
	// solver spans nest under the worker's attempt span.
	Obs obs.Scope
	// RecordResiduals, when set, captures the residual trajectory in
	// Stats.Residuals: the per-iteration normal-equation residual norm for
	// pure double CGNE, the per-reliable-update double-precision residual
	// norm for CGNEMixed. Every recorded value derives from deterministic
	// fixed-chunk reductions, so the trajectory is bitwise reproducible.
	RecordResiduals bool
}

const (
	// reliableDelta triggers a reliable update when the sloppy residual
	// has shrunk by this factor relative to its maximum since the last
	// update: the production value quoted in the QUDA paper.
	reliableDelta = 0.1
	// stagnationUpdates is how many consecutive reliable updates may fail
	// to improve the best double-precision residual before CGNEMixed
	// declares the sloppy stage stagnant and restarts (or fails with
	// ErrDiverged when out of restarts).
	stagnationUpdates = 5
)

func (p Params) withDefaults() Params {
	if p.Tol <= 0 {
		p.Tol = 1e-8
	}
	if p.MaxIter <= 0 {
		p.MaxIter = 25000
	}
	if p.MaxRestarts == 0 {
		p.MaxRestarts = 2
	}
	if p.StagnationWindow == 0 {
		p.StagnationWindow = p.MaxIter / 10
		if p.StagnationWindow < 100 {
			p.StagnationWindow = 100
		}
	}
	return p
}

// Stats reports what a solve did.
type Stats struct {
	Iterations      int           // sloppy (or double) CG iterations
	ReliableUpdates int           // double-precision residual replacements
	Converged       bool          // true residual target reached
	TrueResidual    float64       // final ||b - D x|| / ||b||
	Flops           int64         // matvec flops (per FlopsPerApply)
	Elapsed         time.Duration // wall-clock time of the solve
	Precision       Precision     // sloppy precision in use at the end (escalated by restarts)
	// Restarts counts precision-escalation restarts: the sloppy stage
	// diverged, its accumulation was discarded, and the solve resumed
	// from the last reliable iterate one precision tier up.
	Restarts int
	// Residuals is the residual trajectory, recorded only when
	// Params.RecordResiduals is set (see there for what each solver
	// records). Bitwise reproducible.
	Residuals []float64
}

// ErrMaxIter is returned when the iteration cap is reached before the
// requested tolerance.
var ErrMaxIter = errors.New("solver: maximum iterations reached without convergence")

// ErrBreakdown is returned when CG encounters a non-positive curvature
// (<p, Ap> <= 0), which for a true normal operator indicates numerical
// breakdown.
var ErrBreakdown = errors.New("solver: conjugate gradient breakdown")

// ErrDiverged is returned when the iteration stops making progress: the
// residual went NaN/Inf, or no new residual minimum appeared within the
// stagnation window. CGNEMixed first spends its MaxRestarts budget on
// precision-escalation restarts before surfacing this error.
var ErrDiverged = errors.New("solver: iteration diverged (non-finite or stagnant residual)")
