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

// refCGNEMixed is CGNEMixed as it stood before the lock-step drive: one
// loop with its state in closures. It survives as the reference the drive
// is held to bit for bit, on one system
// (TestCGNEMixedMatchesLoopBitForBit) and on each system of a pair
// (TestCGNEMixedPairMatchesSoloBitForBit), and timed against
// (BenchmarkCGNEMixedPaired).
func refCGNEMixed(ws *Workspace, ctx context.Context, op Linear, sloppy Linear32, b []complex128, p Params) ([]complex128, Stats, error) {
	p = p.withDefaults()
	if p.Precision == Double || sloppy == nil {
		return CGNE(ctx, op, b, p)
	}
	start := time.Now()
	n := op.Size()
	if len(b) != n || sloppy.Size() != n {
		panic("solver: CGNEMixed size mismatch")
	}
	st := Stats{Precision: p.Precision}

	// Trace spans: one "cgne-mixed" span over the whole solve, one
	// "cg-block" span per reliable-update segment (the paper's CG iteration
	// blocks), plus instants for reliable updates and restarts. All no-ops
	// on the zero Scope.
	var block obs.Span
	blockOpen := false
	blockIter0 := 0
	beginBlock := func() {
		if p.Obs.Enabled() {
			block = p.Obs.Begin("solver", "cg-block", nil)
			blockOpen = true
		}
	}
	endBlock := func() {
		if blockOpen {
			block.EndWith(map[string]interface{}{"iterations": st.Iterations - blockIter0})
			blockIter0 = st.Iterations
			blockOpen = false
		}
	}
	// noteReliableUpdate records the post-update residual and rolls the
	// cg-block span over; defined here (outside the iteration nest) so the
	// bookkeeping allocations stay off the hot path proper.
	noteReliableUpdate := func(rNorm float64) {
		if p.RecordResiduals {
			st.Residuals = append(st.Residuals, rNorm)
		}
		endBlock()
		if p.Obs.Enabled() {
			p.Obs.Instant("solver", "reliable-update", map[string]interface{}{
				"update": st.ReliableUpdates, "residual": rNorm,
			})
		}
		beginBlock()
	}
	if p.Obs.Enabled() {
		span := p.Obs.Begin("solver", "cgne-mixed", map[string]interface{}{
			"n": n, "precision": p.Precision.String(),
		})
		defer func() {
			endBlock()
			span.EndWith(map[string]interface{}{
				"iterations":       st.Iterations,
				"converged":        st.Converged,
				"residual":         st.TrueResidual,
				"reliable_updates": st.ReliableUpdates,
				"restarts":         st.Restarts,
			})
		}()
	}

	bNorm := math.Sqrt(linalg.NormSq(b))
	x := make([]complex128, n)
	if bNorm == 0 {
		st.Converged = true
		st.Elapsed = time.Since(start)
		return x, st, nil
	}

	// Double-precision outer state: rD is the true normal residual, and
	// xPrev snapshots x across a reliable update so a fold-in that turns
	// out to be poisoned (non-finite recomputed residual) can be undone.
	ws.size(n)
	rhs, rD, tmpD, tmpD2, xPrev := ws.rhs, ws.rD, ws.tmpD, make([]complex128, n), ws.xPrev
	op.ApplyDagger(rhs, b)
	st.Flops += p.FlopsPerApply
	linalg.Copy(rD, rhs)

	// Sloppy state; xs is the sloppy solution accumulated since the last
	// reliable update.
	r, pv, ap, tmp, xs := ws.r, ws.pv, ws.ap, make([]complex64, n), ws.xs
	linalg.Demote(r, rD)
	copy(pv, r)
	linalg.ZeroC64(xs)

	// Half-precision storage rounding for the matvec stream. It reports
	// whether v was finite before the rounding, which would scrub a NaN
	// into finite garbage; without the rounding there is nothing to guard.
	half := p.Precision == Half
	roundHalf := func(v []complex64) bool {
		return !half || linalg.HalfRoundTripC64(v, dirac.SpinorLen)
	}

	rr := linalg.NormSq(rD)
	rhsNorm := math.Sqrt(rr)
	neTarget := p.Tol * rhsNorm
	maxSinceUpdate := math.Sqrt(rr)
	// Stagnation watch over the double-precision reliable residuals.
	bestReliable := math.Inf(1)
	staleUpdates := 0

	trueResidual := func() float64 {
		op.Apply(tmpD, x)
		st.Flops += p.FlopsPerApply
		d := linalg.ReduceFloat64(n, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				e := tmpD[i] - b[i]
				s += real(e)*real(e) + imag(e)*imag(e)
			}
			return s
		})
		return math.Sqrt(d) / bNorm
	}

	// reliableUpdate folds the sloppy solution into x and recomputes the
	// normal residual in double precision. A non-finite recomputed
	// residual means the fold-in was poisoned; x is restored from the
	// snapshot and the caller sees the NaN.
	reliableUpdate := func() float64 {
		linalg.Copy(xPrev, x)
		linalg.Promote(tmpD, xs)
		linalg.Axpy(1, tmpD, x)
		linalg.ZeroC64(xs)
		op.Apply(tmpD, x)
		op.ApplyDagger(tmpD2, tmpD)
		st.Flops += 2 * p.FlopsPerApply
		linalg.Copy(rD, rhs)
		linalg.Axpy(-1, tmpD2, rD)
		linalg.Demote(r, rD)
		st.ReliableUpdates++
		d := linalg.NormSq(rD)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			linalg.Copy(x, xPrev)
		}
		return d
	}

	// restart rewinds the sloppy stage to the last reliable iterate:
	// whatever accumulated in xs since then is discarded as poisoned, and
	// the double-precision residual is refreshed from x alone.
	restart := func() {
		linalg.ZeroC64(xs)
		op.Apply(tmpD, x)
		op.ApplyDagger(tmpD2, tmpD)
		st.Flops += 2 * p.FlopsPerApply
		linalg.Copy(rD, rhs)
		linalg.Axpy(-1, tmpD2, rD)
		linalg.Demote(r, rD)
		copy(pv, r)
		rr = linalg.NormSq(rD)
		maxSinceUpdate = math.Sqrt(rr)
		staleUpdates = 0
	}

	beginBlock()
	for {
		diverged := false
		for st.Iterations < p.MaxIter {
			if err := interrupted(ctx); err != nil {
				// Fold in the sloppy accumulation so the partial solution is
				// the best iterate reached, then abort.
				linalg.Promote(tmpD, xs)
				linalg.Axpy(1, tmpD, x)
				st.Elapsed = time.Since(start)
				return x, st, fmt.Errorf("solver: interrupted after %d iterations: %w", st.Iterations, err)
			}
			roundHalf(pv)
			sloppy.Apply(tmp, pv)
			sloppy.ApplyDagger(ap, tmp)
			finite := roundHalf(ap)
			st.Flops += 2 * p.FlopsPerApply
			st.Iterations++
			if !finite {
				// The poison caught before the rounding laundered it.
				diverged = true
				break
			}

			pap := real(linalg.DotC64(pv, ap))
			if math.IsNaN(pap) || math.IsInf(pap, 0) || pap <= 0 {
				// Non-finite curvature is divergence outright; non-positive
				// curvature from a true normal operator can only be sloppy
				// arithmetic lying, so it escalates too rather than failing
				// the solve as a breakdown.
				diverged = true
				break
			}
			alpha := rr / pap
			a32 := complex(float32(alpha), 0)
			linalg.AxpyC64(a32, pv, xs)
			linalg.AxpyC64(-a32, ap, r)
			rrNew := linalg.NormSqC64(r)
			if math.IsNaN(rrNew) || math.IsInf(rrNew, 0) {
				diverged = true
				break
			}
			rNorm := math.Sqrt(rrNew)

			if rNorm < reliableDelta*maxSinceUpdate || rNorm <= neTarget {
				rrNew = reliableUpdate()
				if math.IsNaN(rrNew) || math.IsInf(rrNew, 0) {
					diverged = true
					break
				}
				rNorm = math.Sqrt(rrNew)
				noteReliableUpdate(rNorm)
				maxSinceUpdate = rNorm
				if rNorm < bestReliable {
					bestReliable = rNorm
					staleUpdates = 0
				} else if staleUpdates++; staleUpdates >= stagnationUpdates {
					diverged = true
					break
				}
				if rNorm <= neTarget {
					if res := trueResidual(); res <= p.Tol {
						st.Converged = true
						st.TrueResidual = res
						st.Elapsed = time.Since(start)
						return x, st, nil
					}
					neTarget *= 0.1
				}
			} else if rNorm > maxSinceUpdate {
				maxSinceUpdate = rNorm
			}

			beta := complex(float32(rrNew/rr), 0)
			linalg.XpayC64(r, beta, pv)
			rr = rrNew
		}
		if !diverged {
			break
		}
		if p.MaxRestarts < 0 || st.Restarts >= p.MaxRestarts {
			st.TrueResidual = trueResidual()
			st.Elapsed = time.Since(start)
			return x, st, ErrDiverged
		}
		st.Restarts++
		endBlock()
		if st.Precision == Half {
			// One tier up: drop the 16-bit storage rounding, keep the
			// single-precision sloppy operator.
			st.Precision = Single
			if p.Obs.Enabled() {
				p.Obs.Instant("solver", "restart", map[string]interface{}{
					"restart": st.Restarts, "precision": st.Precision.String(),
				})
			}
			half = false
			restart()
			beginBlock()
			continue
		}
		// Already single: finish the solve in full double precision from
		// the last reliable iterate.
		st.Precision = Double
		if p.Obs.Enabled() {
			p.Obs.Instant("solver", "restart", map[string]interface{}{
				"restart": st.Restarts, "precision": st.Precision.String(),
			})
		}
		pd := p
		pd.Precision = Double
		pd.MaxIter = p.MaxIter - st.Iterations
		if pd.MaxIter < 1 {
			pd.MaxIter = 1
		}
		xd, dst, derr := cgneFrom(ctx, op, b, x, pd)
		st.Iterations += dst.Iterations
		st.Flops += dst.Flops
		st.ReliableUpdates += dst.ReliableUpdates
		st.Residuals = append(st.Residuals, dst.Residuals...)
		st.Converged = dst.Converged
		st.TrueResidual = dst.TrueResidual
		st.Elapsed = time.Since(start)
		return xd, st, derr
	}

	// Final fold-in of whatever the sloppy stage accumulated.
	linalg.Promote(tmpD, xs)
	linalg.Axpy(1, tmpD, x)
	st.TrueResidual = trueResidual()
	st.Converged = st.TrueResidual <= p.Tol
	st.Elapsed = time.Since(start)
	if !st.Converged {
		return x, st, ErrMaxIter
	}
	return x, st, nil
}
