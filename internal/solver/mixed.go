package solver

import (
	"context"
	"fmt"
	"math"
	"time"

	"femtoverse/internal/dirac"
	"femtoverse/internal/linalg"
	"femtoverse/internal/obs"
)

// CGNEMixed solves D x = b with the paper's production scheme: conjugate
// gradient on the normal equations where the matrix applications and
// vector updates run in a sloppy precision (single, or single compute
// with 16-bit fixed-point storage rounding for Half), while reliable
// updates - triggered when the sloppy residual has dropped by
// reliableDelta relative to its maximum since the last update - recompute
// the group residual in full double precision and re-inject it, bounding
// the accumulated rounding error. All reductions are double precision.
// The context is checked once per iteration, as in CGNE.
//
// The sloppy stage is defended against divergence: a NaN/Inf residual or
// curvature, a sloppy breakdown, or stagnationUpdates consecutive
// reliable updates without progress triggers a restart - the poisoned
// sloppy accumulation is discarded and the solve resumes from the last
// reliable iterate one precision tier up (Half -> Single -> Double),
// bounded by MaxRestarts and counted in Stats.Restarts. Out of restarts,
// the solve fails with ErrDiverged.
//
// This form allocates its vectors afresh; a caller with many systems of
// one size to solve keeps a Workspace per system in flight and hands them
// to CGNEMixedLockStep.
func CGNEMixed(ctx context.Context, op Linear, sloppy Linear32, b []complex128, p Params) ([]complex128, Stats, error) {
	sys := []System{{Ctx: ctx, WS: new(Workspace), B: b}}
	CGNEMixedLockStep(op, sloppy, p, sys)
	return sys[0].X, sys[0].Stats, sys[0].Err
}

// Workspace holds the eight work vectors of a mixed-precision solve - four
// double (normal-equation right-hand side, true residual, an operator
// temporary, the reliable-update snapshot) and four single (residual,
// direction, its image, the sloppy solution) - so that a caller solving
// system after system of one size allocates them once.
// The zero value is ready; the vectors are sized by the first solve and
// again whenever the size changes. A Workspace serves one solve at a
// time, and nothing in it outlives a solve: the solution returned is
// always a fresh vector the caller owns.
type Workspace struct {
	rhs, rD, tmpD, xPrev []complex128
	r, pv, ap, xs        []complex64
	io                   [2][]complex128 // the operands of refresh's D^dag D
}

// size makes every vector n long. Only xs is read before it is written,
// and the solve zeroes it itself.
func (ws *Workspace) size(n int) {
	if len(ws.rhs) == n {
		return
	}
	vec, vec32 := func() []complex128 { return make([]complex128, n) }, func() []complex64 { return make([]complex64, n) }
	ws.rhs, ws.rD, ws.tmpD, ws.xPrev = vec(), vec(), vec(), vec()
	ws.r, ws.pv, ws.ap, ws.xs = vec32(), vec32(), vec32(), vec32()
}

// System is one right-hand side of CGNEMixedLockStep: the context it is
// solved under, the workspace it is solved in and its source B, and, once
// the drive returns, its solution X, stats and error.
type System struct {
	Ctx context.Context
	WS  *Workspace
	B   []complex128

	X     []complex128
	Stats Stats
	Err   error
}

// CGNEMixedLockStep solves systems of one operator, D X = B for each, and
// gives each what CGNEMixed returns for it to the bit: the systems run
// CGNEMixed's iteration in lock-step, and the matrix applications of those
// in the sloppy stage are one normal operator on all of them, which the
// operator groups as it runs best (a dirac.MobiusEO32 two to a pass of its
// pair bodies). Everything else stays per system - the reductions, the
// reliable updates, the Half rounding and its NaN guard, the escalation
// to Double - and a system that finishes, fails or escalates leaves the
// others to carry on. The trace records one "cgne-mixed" span for the
// drive, with every system's stats.
func CGNEMixedLockStep(op Linear, sloppy Linear32, p Params, sys []System) {
	p = p.withDefaults()
	if p.Precision == Double || sloppy == nil {
		for k := range sys {
			sys[k].X, sys[k].Stats, sys[k].Err = CGNE(sys[k].Ctx, op, sys[k].B, p)
		}
		return
	}
	tr := mixedTrace{sc: p.Obs}
	tr.open(op.Size(), p.Precision, len(sys))
	var small [2]mixedSolve // a drive of one or two systems allocates none
	s := small[:]
	if len(sys) > len(small) {
		s = make([]mixedSolve, len(sys))
	}
	s = s[:len(sys)]
	start, normal := time.Now(), normalOf[complex128](op)
	for k := range s {
		s[k] = mixedSolve{System: &sys[k], op: op, normal: normal, p: p, tr: &tr, sys: k, start: start}
		s[k].begin(sloppy)
	}
	drive(&tr, normalOf[complex64](sloppy), s)
	tr.close(sys)
}

// drive is the one drive loop: each iteration starts every live system
// (before), applies the sloppy normal operator to the directions of those
// still live in one call, and ends their iteration (after), until none is
// live. A block one system's escalation closed while others run on is
// reopened at the next iteration's start.
func drive(t *mixedTrace, sloppy Normal[complex64], s []mixedSolve) {
	io := make([][]complex64, 2*len(s))
	ap, pv := io[:len(s)], io[len(s):]
	for {
		live := 0
		for k := range s {
			a := &s[k]
			if a.done {
				continue
			}
			t.beginBlock()
			if a.before(); !a.done {
				ap[live], pv[live] = a.WS.ap, a.WS.pv
				live++
			}
		}
		if live == 0 {
			return
		}
		sloppy.ApplyNormal(ap[:live], pv[:live])
		t.steps++
		for k := range s {
			if !s[k].done {
				s[k].after()
			}
		}
	}
}

// mixedSolve is one system of a mixed-precision solve in flight: its
// vectors, the recurrence's scalars, its stats. The drive steps it one
// iteration at a time - before, the sloppy apply, after - until it is
// done. Each step is exactly the part of CGNEMixed's iteration it names,
// so a system takes the same operations in the same order whatever else
// the drive is solving.
type mixedSolve struct {
	*System // its inputs, and its results as they stand
	op      Linear
	normal  Normal[complex128] // op's
	p       Params
	tr      *mixedTrace
	sys     int // the system's index in its drive, for the trace

	start time.Time
	done  bool

	// half is whether the sloppy stream is rounded through 16 bits.
	half  bool
	bNorm float64
	// rr is the sloppy residual norm squared, neTarget the normal residual
	// the sloppy stage aims at, maxSinceUpdate the largest sloppy residual
	// since the last reliable update, and bestReliable and staleUpdates
	// the stagnation watch over the double-precision reliable residuals.
	rr, neTarget, maxSinceUpdate, bestReliable float64
	staleUpdates                               int
}

// begin sets the system up: x = 0, the double-precision outer state (rD
// the true normal residual, xPrev the snapshot that lets a poisoned
// reliable update be undone), and the sloppy state (xs the sloppy
// solution accumulated since the last reliable update). A zero right-hand
// side is done at once.
func (s *mixedSolve) begin(sloppy Linear32) {
	b, ws, p := s.B, s.WS, s.p
	n := s.op.Size()
	if len(b) != n || sloppy.Size() != n {
		panic("solver: CGNEMixed size mismatch")
	}
	s.Stats = Stats{Precision: p.Precision}
	s.bNorm = math.Sqrt(linalg.NormSq(b))
	s.X = make([]complex128, n)
	if s.bNorm == 0 {
		s.Stats.Converged = true
		s.finish(nil)
		return
	}
	ws.size(n)
	s.op.ApplyDagger(ws.rhs, b)
	s.Stats.Flops += p.FlopsPerApply
	linalg.Copy(ws.rD, ws.rhs)
	linalg.Demote(ws.r, ws.rD)
	copy(ws.pv, ws.r)
	linalg.ZeroC64(ws.xs)
	s.half = p.Precision == Half
	s.rr = linalg.NormSq(ws.rD)
	s.neTarget = p.Tol * math.Sqrt(s.rr)
	s.maxSinceUpdate = math.Sqrt(s.rr)
	s.bestReliable = math.Inf(1)
}

// finish stamps the elapsed time and the error and marks the system done.
func (s *mixedSolve) finish(err error) {
	s.Stats.Elapsed = time.Since(s.start)
	s.Err, s.done = err, true
}

// roundHalf is the Half storage rounding of the matvec stream. It reports
// whether v was finite before the rounding, which would scrub a NaN into
// finite garbage; without the rounding there is nothing to guard.
func (s *mixedSolve) roundHalf(v []complex64) bool {
	return !s.half || linalg.HalfRoundTripC64(v, dirac.SpinorLen)
}

// before is the iteration's start: the iteration cap, which ends the
// sloppy stage with the final fold-in, the context, and the rounding of
// the direction the apply reads.
func (s *mixedSolve) before() {
	if s.Stats.Iterations >= s.p.MaxIter {
		s.foldIn()
		s.Stats.TrueResidual = s.trueResidual()
		s.Stats.Converged = s.Stats.TrueResidual <= s.p.Tol
		if !s.Stats.Converged {
			s.finish(ErrMaxIter)
			return
		}
		s.finish(nil)
		return
	}
	if err := interrupted(s.Ctx); err != nil {
		// Fold in the sloppy accumulation so the partial solution is the
		// best iterate reached, then abort.
		s.foldIn()
		s.finish(fmt.Errorf("solver: interrupted after %d iterations: %w", s.Stats.Iterations, err))
		return
	}
	s.roundHalf(s.WS.pv)
}

// after is the rest of the iteration, from the rounding of the apply's
// result: the reductions, the step, the reliable update and the
// convergence test, and on divergence the restart.
func (s *mixedSolve) after() {
	ws, p := s.WS, s.p
	finite := s.roundHalf(ws.ap)
	s.Stats.Flops += 2 * p.FlopsPerApply
	s.Stats.Iterations++
	if !finite {
		// The poison caught before the rounding laundered it.
		s.diverged()
		return
	}
	pap := real(linalg.DotC64(ws.pv, ws.ap))
	if math.IsNaN(pap) || math.IsInf(pap, 0) || pap <= 0 {
		// Non-finite curvature is divergence outright; non-positive
		// curvature from a true normal operator can only be sloppy
		// arithmetic lying, so it escalates too rather than failing the
		// solve as a breakdown.
		s.diverged()
		return
	}
	alpha := s.rr / pap
	a32 := complex(float32(alpha), 0)
	linalg.AxpyC64(a32, ws.pv, ws.xs)
	rrNew := linalg.AxpyNormSqC64(-a32, ws.ap, ws.r)
	if math.IsNaN(rrNew) || math.IsInf(rrNew, 0) {
		s.diverged()
		return
	}
	rNorm := math.Sqrt(rrNew)

	if rNorm < reliableDelta*s.maxSinceUpdate || rNorm <= s.neTarget {
		rrNew = s.reliableUpdate()
		if math.IsNaN(rrNew) || math.IsInf(rrNew, 0) {
			s.diverged()
			return
		}
		rNorm = math.Sqrt(rrNew)
		if p.RecordResiduals {
			s.Stats.Residuals = append(s.Stats.Residuals, rNorm)
		}
		s.tr.reliableUpdate(s.sys, s.Stats.ReliableUpdates, rNorm)
		s.maxSinceUpdate = rNorm
		if rNorm < s.bestReliable {
			s.bestReliable = rNorm
			s.staleUpdates = 0
		} else if s.staleUpdates++; s.staleUpdates >= stagnationUpdates {
			s.diverged()
			return
		}
		if rNorm <= s.neTarget {
			if res := s.trueResidual(); res <= p.Tol {
				s.Stats.Converged = true
				s.Stats.TrueResidual = res
				s.finish(nil)
				return
			}
			s.neTarget *= 0.1
		}
	} else if rNorm > s.maxSinceUpdate {
		s.maxSinceUpdate = rNorm
	}

	beta := complex(float32(rrNew/s.rr), 0)
	linalg.XpayC64(ws.r, beta, ws.pv)
	s.rr = rrNew
}

// foldIn adds the sloppy accumulation to x.
func (s *mixedSolve) foldIn() {
	linalg.Promote(s.WS.tmpD, s.WS.xs)
	linalg.Axpy(1, s.WS.tmpD, s.X)
}

// trueResidual is ||b - D x|| / ||b|| in double precision.
func (s *mixedSolve) trueResidual() float64 {
	tmpD, b := s.WS.tmpD, s.B
	s.op.Apply(tmpD, s.X)
	s.Stats.Flops += s.p.FlopsPerApply
	d := linalg.ReduceFloat64(len(b), func(lo, hi int) float64 {
		sum := 0.0
		for i := lo; i < hi; i++ {
			e := tmpD[i] - b[i]
			sum += real(e)*real(e) + imag(e)*imag(e)
		}
		return sum
	})
	return math.Sqrt(d) / s.bNorm
}

// refresh recomputes the normal residual rD = D^dag b - D^dag D x in
// double precision and demotes it into the sloppy residual.
func (s *mixedSolve) refresh() {
	ws := s.WS
	ws.io = [2][]complex128{ws.tmpD, s.X}
	s.normal.ApplyNormal(ws.io[:1], ws.io[1:])
	s.Stats.Flops += 2 * s.p.FlopsPerApply
	linalg.Copy(ws.rD, ws.rhs)
	linalg.Axpy(-1, ws.tmpD, ws.rD)
	linalg.Demote(ws.r, ws.rD)
}

// reliableUpdate folds the sloppy solution into x and recomputes the
// normal residual in double precision. A non-finite recomputed residual
// means the fold-in was poisoned; x is restored from the snapshot and the
// caller sees the NaN.
func (s *mixedSolve) reliableUpdate() float64 {
	ws := s.WS
	linalg.Copy(ws.xPrev, s.X)
	s.foldIn()
	linalg.ZeroC64(ws.xs)
	s.refresh()
	s.Stats.ReliableUpdates++
	d := linalg.NormSq(ws.rD)
	if math.IsNaN(d) || math.IsInf(d, 0) {
		linalg.Copy(s.X, ws.xPrev)
	}
	return d
}

// diverged is the sloppy stage's divergence: a restart one precision tier
// up while restarts are left - from Half, the sloppy stage again from the
// last reliable iterate without the rounding; from Single, pure double
// CGNE from it to the end - and ErrDiverged after that.
func (s *mixedSolve) diverged() {
	p := s.p
	if p.MaxRestarts < 0 || s.Stats.Restarts >= p.MaxRestarts {
		s.Stats.TrueResidual = s.trueResidual()
		s.finish(ErrDiverged)
		return
	}
	s.Stats.Restarts++
	if s.Stats.Precision == Half {
		// One tier up: drop the 16-bit storage rounding, keep the
		// single-precision sloppy operator, and rewind to the last reliable
		// iterate: whatever accumulated in xs since then is discarded as
		// poisoned.
		s.Stats.Precision = Single
		s.tr.restart(s.sys, s.Stats.Restarts, Single, true)
		s.half = false
		linalg.ZeroC64(s.WS.xs)
		s.refresh()
		copy(s.WS.pv, s.WS.r)
		s.rr = linalg.NormSq(s.WS.rD)
		s.maxSinceUpdate = math.Sqrt(s.rr)
		s.staleUpdates = 0
		return
	}
	// Already single: finish the solve in full double precision from the
	// last reliable iterate.
	s.Stats.Precision = Double
	s.tr.restart(s.sys, s.Stats.Restarts, Double, false)
	pd := p
	pd.Precision = Double
	pd.MaxIter = max(p.MaxIter-s.Stats.Iterations, 1)
	xd, dst, derr := cgneFrom(s.Ctx, s.op, s.B, s.X, pd)
	s.Stats.Iterations += dst.Iterations
	s.Stats.Flops += dst.Flops
	s.Stats.ReliableUpdates += dst.ReliableUpdates
	s.Stats.Residuals = append(s.Stats.Residuals, dst.Residuals...)
	s.Stats.Converged = dst.Converged
	s.Stats.TrueResidual = dst.TrueResidual
	s.X = xd
	s.finish(derr)
}

// mixedTrace is a drive's trace: one "cgne-mixed" span over the whole
// drive, one "cg-block" span per reliable-update segment (the paper's CG
// iteration blocks) - rolled over when any system of the drive takes a
// reliable update - and instants for reliable updates and restarts, each
// tagged with its system. A drive records on one lane, so its spans never
// overlap one another there: the drive's systems share the one span and
// the one block. All of it is a no-op on the zero Scope.
type mixedTrace struct {
	sc      obs.Scope
	span    obs.Span
	block   obs.Span
	inBlock bool
	// steps counts the drive's sloppy iterations, and steps0 them at the
	// open block's start.
	steps, steps0 int
}

// open begins the drive's span and its first block.
func (t *mixedTrace) open(n int, prec Precision, systems int) {
	if !t.sc.Enabled() {
		return
	}
	args := map[string]interface{}{"n": n, "precision": prec.String()}
	if systems > 1 {
		args["systems"] = systems
	}
	t.span = t.sc.Begin("solver", "cgne-mixed", args)
	t.beginBlock()
}

func (t *mixedTrace) beginBlock() {
	if t.sc.Enabled() && !t.inBlock {
		t.block = t.sc.Begin("solver", "cg-block", nil)
		t.inBlock, t.steps0 = true, t.steps
	}
}

func (t *mixedTrace) endBlock() {
	if t.inBlock {
		t.block.EndWith(map[string]interface{}{"iterations": t.steps - t.steps0})
		t.inBlock = false
	}
}

// reliableUpdate records system sys's reliable update and rolls the block
// over.
func (t *mixedTrace) reliableUpdate(sys, update int, rNorm float64) {
	if !t.sc.Enabled() {
		return
	}
	t.endBlock()
	t.sc.Instant("solver", "reliable-update", map[string]interface{}{
		"update": update, "residual": rNorm, "system": sys,
	})
	t.beginBlock()
}

// restart records system sys's escalation to prec and ends the block; a
// restart that stays in the sloppy stage (again) opens the next one.
func (t *mixedTrace) restart(sys, restarts int, prec Precision, again bool) {
	if !t.sc.Enabled() {
		return
	}
	t.endBlock()
	t.sc.Instant("solver", "restart", map[string]interface{}{
		"restart": restarts, "precision": prec.String(), "system": sys,
	})
	if again {
		t.beginBlock()
	}
}

// close ends the last block and the drive's span with each system's stats:
// numbers for one system, lists in system order for more.
func (t *mixedTrace) close(sys []System) {
	if !t.sc.Enabled() {
		return
	}
	t.endBlock()
	stat := func(f func(st *Stats) interface{}) interface{} {
		if len(sys) == 1 {
			return f(&sys[0].Stats)
		}
		v := make([]interface{}, len(sys))
		for k := range sys {
			v[k] = f(&sys[k].Stats)
		}
		return v
	}
	t.span.EndWith(map[string]interface{}{
		"iterations":       stat(func(st *Stats) interface{} { return st.Iterations }),
		"converged":        stat(func(st *Stats) interface{} { return st.Converged }),
		"residual":         stat(func(st *Stats) interface{} { return st.TrueResidual }),
		"reliable_updates": stat(func(st *Stats) interface{} { return st.ReliableUpdates }),
		"restarts":         stat(func(st *Stats) interface{} { return st.Restarts }),
	})
}
