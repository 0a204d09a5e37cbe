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
// one size to solve keeps a Workspace and calls its method.
func CGNEMixed(ctx context.Context, op Linear, sloppy Linear32, b []complex128, p Params) ([]complex128, Stats, error) {
	var ws Workspace
	return ws.CGNEMixed(ctx, op, sloppy, b, p)
}

// Linear32Pair is a sloppy operator that also applies itself to two
// systems in one pass, each to the bit as Apply and ApplyDagger would
// alone; dirac.MobiusEO32 is one.
type Linear32Pair interface {
	Linear32
	ApplyPair(dstA, dstB, srcA, srcB []complex64)
	ApplyDaggerPair(dstA, dstB, srcA, srcB []complex64)
}

// Workspace holds the ten work vectors of a mixed-precision solve - five
// double (normal-equation right-hand side, true residual, two operator
// temporaries, the reliable-update snapshot) and five single (residual,
// direction, its image, a temporary, the sloppy solution) - so that a
// caller solving system after system of one size allocates them once.
// The zero value is ready; the vectors are sized by the first solve and
// again whenever the size changes. A Workspace serves one solve at a
// time, and nothing in it outlives a solve: the solution returned is
// always a fresh vector the caller owns.
type Workspace struct {
	rhs, rD, tmpD, tmpD2, xPrev []complex128
	r, pv, ap, tmp, xs          []complex64
}

// size makes every vector n long. Only xs is read before it is written,
// and the solve zeroes it itself.
func (ws *Workspace) size(n int) {
	if len(ws.rhs) == n {
		return
	}
	vec, vec32 := func() []complex128 { return make([]complex128, n) }, func() []complex64 { return make([]complex64, n) }
	ws.rhs, ws.rD, ws.tmpD, ws.tmpD2, ws.xPrev = vec(), vec(), vec(), vec(), vec()
	ws.r, ws.pv, ws.ap, ws.tmp, ws.xs = vec32(), vec32(), vec32(), vec32(), vec32()
}

// CGNEMixed is the package function of the same name on the workspace's
// vectors: the same iteration, the same bits. It drives one system
// through the stepper the pair drive drives two through.
func (ws *Workspace) CGNEMixed(ctx context.Context, op Linear, sloppy Linear32, b []complex128, p Params) ([]complex128, Stats, error) {
	p = p.withDefaults()
	if p.Precision == Double || sloppy == nil {
		return CGNE(ctx, op, b, p)
	}
	tr := mixedTrace{sc: p.Obs}
	tr.open(op.Size(), p.Precision, 1)
	s := mixedSolve{tr: &tr}
	s.begin(ctx, op, sloppy, ws, b, p, time.Now())
	s.run()
	tr.close(&s)
	return s.x, s.st, s.err
}

// CGNEMixedPair solves two systems of one operator, D x[k] = b[k], each
// with ws[k] under ctx[k], and returns what CGNEMixed returns for each to
// the bit: the two systems run CGNEMixed's iteration in lock-step, and
// while both are in the sloppy stage their matrix applications are one
// ApplyPair and one ApplyDaggerPair. Everything else stays per system -
// the reductions, the reliable updates, the Half rounding and its NaN
// guard, the escalation to Double - and a system that finishes, fails or
// escalates leaves its partner to carry on alone. The trace records one
// "cgne-mixed" span for the pair, with both systems' stats.
func CGNEMixedPair(ctx [2]context.Context, op Linear, sloppy Linear32Pair, ws [2]*Workspace, b [2][]complex128, p Params) (x [2][]complex128, st [2]Stats, err [2]error) {
	p = p.withDefaults()
	if p.Precision == Double || sloppy == nil {
		for k := range x {
			x[k], st[k], err[k] = CGNE(ctx[k], op, b[k], p)
		}
		return x, st, err
	}
	tr := mixedTrace{sc: p.Obs}
	tr.open(op.Size(), p.Precision, 2)
	var s [2]mixedSolve
	start := time.Now()
	for k := range s {
		s[k] = mixedSolve{tr: &tr, sys: k}
		s[k].begin(ctx[k], op, sloppy, ws[k], b[k], p, start)
	}
	a, c := &s[0], &s[1]
	for !a.done && !c.done {
		a.before()
		c.before()
		if a.done || c.done {
			// One left before its apply: the other has made its own
			// preparations and goes on alone from its apply.
			if !a.done {
				a.step()
			}
			if !c.done {
				c.step()
			}
			break
		}
		sloppy.ApplyPair(a.ws.tmp, c.ws.tmp, a.ws.pv, c.ws.pv)
		sloppy.ApplyDaggerPair(a.ws.ap, c.ws.ap, a.ws.tmp, c.ws.tmp)
		tr.steps++
		a.after()
		c.after()
	}
	a.run()
	c.run()
	tr.close(a, c)
	for k := range s {
		x[k], st[k], err[k] = s[k].x, s[k].st, s[k].err
	}
	return x, st, err
}

// mixedSolve is one system of a mixed-precision solve in flight: its
// vectors, the recurrence's scalars, its stats. A drive steps it one
// iteration at a time - before, the sloppy apply, after - until it is
// done; run is the one-system drive, and step the apply and after of a
// system alone. Each step is exactly the part of CGNEMixed's iteration it
// names, so a system takes the same operations in the same order
// whichever drive steps it.
type mixedSolve struct {
	ctx    context.Context
	op     Linear
	sloppy Linear32
	ws     *Workspace
	b      []complex128
	p      Params
	tr     *mixedTrace
	sys    int // the system's index in its drive, for the trace

	start time.Time
	st    Stats
	x     []complex128
	err   error
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
func (s *mixedSolve) begin(ctx context.Context, op Linear, sloppy Linear32, ws *Workspace, b []complex128, p Params, start time.Time) {
	s.ctx, s.op, s.sloppy, s.ws, s.b, s.p, s.start = ctx, op, sloppy, ws, b, p, start
	n := op.Size()
	if len(b) != n || sloppy.Size() != n {
		panic("solver: CGNEMixed size mismatch")
	}
	w := p.Workers
	s.st = Stats{Precision: p.Precision}
	s.bNorm = math.Sqrt(linalg.NormSq(b, w))
	s.x = make([]complex128, n)
	if s.bNorm == 0 {
		s.st.Converged = true
		s.finish(nil)
		return
	}
	ws.size(n)
	op.ApplyDagger(ws.rhs, b)
	s.st.Flops += p.FlopsPerApply
	linalg.Copy(ws.rD, ws.rhs)
	linalg.Demote(ws.r, ws.rD)
	copy(ws.pv, ws.r)
	linalg.ZeroC64(ws.xs)
	s.half = p.Precision == Half
	s.rr = linalg.NormSq(ws.rD, w)
	s.neTarget = p.Tol * math.Sqrt(s.rr)
	s.maxSinceUpdate = math.Sqrt(s.rr)
	s.bestReliable = math.Inf(1)
}

// run steps the system alone until it is done, in a block of the trace
// of its own once a pair drive's partner has left it.
func (s *mixedSolve) run() {
	if !s.done {
		s.tr.beginBlock()
	}
	for !s.done {
		s.before()
		if s.done {
			return
		}
		s.step()
	}
}

// step is the iteration from its apply on, for a system alone.
func (s *mixedSolve) step() {
	s.sloppy.Apply(s.ws.tmp, s.ws.pv)
	s.sloppy.ApplyDagger(s.ws.ap, s.ws.tmp)
	s.tr.steps++
	s.after()
}

// finish stamps the elapsed time and the error and marks the system done.
func (s *mixedSolve) finish(err error) {
	s.st.Elapsed = time.Since(s.start)
	s.err, s.done = err, true
}

// roundHalf is the Half storage rounding of the matvec stream. It reports
// whether v was finite before the rounding, which would scrub a NaN into
// finite garbage; without the rounding there is nothing to guard.
func (s *mixedSolve) roundHalf(v []complex64) bool {
	return !s.half || linalg.HalfRoundTripC64(v, dirac.SpinorLen, s.p.Workers)
}

// before is the iteration's start: the iteration cap, which ends the
// sloppy stage with the final fold-in, the context, and the rounding of
// the direction the apply reads.
func (s *mixedSolve) before() {
	if s.st.Iterations >= s.p.MaxIter {
		s.foldIn()
		s.st.TrueResidual = s.trueResidual()
		s.st.Converged = s.st.TrueResidual <= s.p.Tol
		if !s.st.Converged {
			s.finish(ErrMaxIter)
			return
		}
		s.finish(nil)
		return
	}
	if err := interrupted(s.ctx); err != nil {
		// Fold in the sloppy accumulation so the partial solution is the
		// best iterate reached, then abort.
		s.foldIn()
		s.finish(fmt.Errorf("solver: interrupted after %d iterations: %w", s.st.Iterations, err))
		return
	}
	s.roundHalf(s.ws.pv)
}

// after is the rest of the iteration, from the rounding of the apply's
// result: the reductions, the step, the reliable update and the
// convergence test, and on divergence the restart.
func (s *mixedSolve) after() {
	ws, p, w := s.ws, s.p, s.p.Workers
	finite := s.roundHalf(ws.ap)
	s.st.Flops += 2 * p.FlopsPerApply
	s.st.Iterations++
	if !finite {
		// The poison caught before the rounding laundered it.
		s.diverged()
		return
	}
	pap := real(linalg.DotC64(ws.pv, ws.ap, w))
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
	linalg.AxpyC64(a32, ws.pv, ws.xs, w)
	linalg.AxpyC64(-a32, ws.ap, ws.r, w)
	rrNew := linalg.NormSqC64(ws.r, w)
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
			s.st.Residuals = append(s.st.Residuals, rNorm)
		}
		s.tr.reliableUpdate(s.sys, s.st.ReliableUpdates, rNorm)
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
				s.st.Converged = true
				s.st.TrueResidual = res
				s.finish(nil)
				return
			}
			s.neTarget *= 0.1
		}
	} else if rNorm > s.maxSinceUpdate {
		s.maxSinceUpdate = rNorm
	}

	beta := complex(float32(rrNew/s.rr), 0)
	linalg.XpayC64(ws.r, beta, ws.pv, w)
	s.rr = rrNew
}

// foldIn adds the sloppy accumulation to x.
func (s *mixedSolve) foldIn() {
	linalg.Promote(s.ws.tmpD, s.ws.xs)
	linalg.Axpy(1, s.ws.tmpD, s.x, s.p.Workers)
}

// trueResidual is ||b - D x|| / ||b|| in double precision.
func (s *mixedSolve) trueResidual() float64 {
	tmpD, b := s.ws.tmpD, s.b
	s.op.Apply(tmpD, s.x)
	s.st.Flops += s.p.FlopsPerApply
	d := linalg.ReduceFloat64(len(b), s.p.Workers, func(lo, hi int) float64 {
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
	ws := s.ws
	s.op.Apply(ws.tmpD, s.x)
	s.op.ApplyDagger(ws.tmpD2, ws.tmpD)
	s.st.Flops += 2 * s.p.FlopsPerApply
	linalg.Copy(ws.rD, ws.rhs)
	linalg.Axpy(-1, ws.tmpD2, ws.rD, s.p.Workers)
	linalg.Demote(ws.r, ws.rD)
}

// reliableUpdate folds the sloppy solution into x and recomputes the
// normal residual in double precision. A non-finite recomputed residual
// means the fold-in was poisoned; x is restored from the snapshot and the
// caller sees the NaN.
func (s *mixedSolve) reliableUpdate() float64 {
	ws := s.ws
	linalg.Copy(ws.xPrev, s.x)
	s.foldIn()
	linalg.ZeroC64(ws.xs)
	s.refresh()
	s.st.ReliableUpdates++
	d := linalg.NormSq(ws.rD, s.p.Workers)
	if math.IsNaN(d) || math.IsInf(d, 0) {
		linalg.Copy(s.x, ws.xPrev)
	}
	return d
}

// diverged is the sloppy stage's divergence: a restart one precision tier
// up while restarts are left - from Half, the sloppy stage again from the
// last reliable iterate without the rounding; from Single, pure double
// CGNE from it to the end - and ErrDiverged after that.
func (s *mixedSolve) diverged() {
	p := s.p
	if p.MaxRestarts < 0 || s.st.Restarts >= p.MaxRestarts {
		s.st.TrueResidual = s.trueResidual()
		s.finish(ErrDiverged)
		return
	}
	s.st.Restarts++
	if s.st.Precision == Half {
		// One tier up: drop the 16-bit storage rounding, keep the
		// single-precision sloppy operator, and rewind to the last reliable
		// iterate: whatever accumulated in xs since then is discarded as
		// poisoned.
		s.st.Precision = Single
		s.tr.restart(s.sys, s.st.Restarts, Single, true)
		s.half = false
		linalg.ZeroC64(s.ws.xs)
		s.refresh()
		copy(s.ws.pv, s.ws.r)
		s.rr = linalg.NormSq(s.ws.rD, p.Workers)
		s.maxSinceUpdate = math.Sqrt(s.rr)
		s.staleUpdates = 0
		return
	}
	// Already single: finish the solve in full double precision from the
	// last reliable iterate.
	s.st.Precision = Double
	s.tr.restart(s.sys, s.st.Restarts, Double, false)
	pd := p
	pd.Precision = Double
	pd.MaxIter = max(p.MaxIter-s.st.Iterations, 1)
	xd, dst, derr := cgneFrom(s.ctx, s.op, s.b, s.x, pd)
	s.st.Iterations += dst.Iterations
	s.st.Flops += dst.Flops
	s.st.ReliableUpdates += dst.ReliableUpdates
	s.st.Residuals = append(s.st.Residuals, dst.Residuals...)
	s.st.Converged = dst.Converged
	s.st.TrueResidual = dst.TrueResidual
	s.x = xd
	s.finish(derr)
}

// mixedTrace is a drive's trace: one "cgne-mixed" span over the whole
// drive, one "cg-block" span per reliable-update segment (the paper's CG
// iteration blocks) - rolled over when any system of the drive takes a
// reliable update - and instants for reliable updates and restarts, each
// tagged with its system. A drive records on one lane, so its spans never
// overlap one another there: the pair's two systems share the one span
// and the one block. All of it is a no-op on the zero Scope.
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
// numbers for one system, lists in system order for a pair.
func (t *mixedTrace) close(s ...*mixedSolve) {
	if !t.sc.Enabled() {
		return
	}
	t.endBlock()
	stat := func(f func(st *Stats) interface{}) interface{} {
		if len(s) == 1 {
			return f(&s[0].st)
		}
		v := make([]interface{}, len(s))
		for k := range s {
			v[k] = f(&s[k].st)
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
