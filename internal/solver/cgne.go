package solver

import (
	"context"
	"fmt"
	"math"
	"time"

	"femtoverse/internal/linalg"
)

// interrupted reports the context's error, tolerating a nil context so
// that sequential callers may pass context.Background() or nil alike.
func interrupted(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// CGNE solves D x = b for a general invertible operator by running
// conjugate gradient on the Hermitian positive-definite normal equations
// D^dag D x = D^dag b, entirely in double precision. Convergence is
// declared on the *true* residual ||b - D x|| / ||b||, verified explicitly
// whenever the normal-equation residual suggests convergence. The context
// is checked once per iteration: a cancelled or expired ctx aborts the
// solve mid-iteration and returns the partial solution with a wrapped
// ctx error.
func CGNE(ctx context.Context, op Linear, b []complex128, p Params) ([]complex128, Stats, error) {
	return cgneFrom(ctx, op, b, nil, p)
}

// cgneFrom is CGNE with an initial guess x0 (nil means zero); CGNEMixed
// escalates to double precision from its sloppy iterate through it.
func cgneFrom(ctx context.Context, op Linear, b, x0 []complex128, p Params) ([]complex128, Stats, error) {
	p = p.withDefaults()
	start := time.Now()
	n := op.Size()
	if len(b) != n {
		panic("solver: CGNE rhs size mismatch")
	}

	st := Stats{Precision: Double}
	if p.Obs.Enabled() {
		span := p.Obs.Begin("solver", "cgne", map[string]interface{}{"n": n})
		defer func() {
			span.EndWith(map[string]interface{}{
				"iterations": st.Iterations,
				"converged":  st.Converged,
				"residual":   st.TrueResidual,
			})
		}()
	}

	bNorm := math.Sqrt(linalg.NormSq(b))
	x := make([]complex128, n)
	if x0 != nil {
		if len(x0) != n {
			panic("solver: CGNE guess size mismatch")
		}
		copy(x, x0)
	}
	if bNorm == 0 {
		st.Converged = true
		st.Elapsed = time.Since(start)
		return x, st, nil
	}

	// r = D^dag b - N x; pv the direction and ap its image N pv, which
	// between iterations is the true residual's scratch.
	work := make([]complex128, 3*n)
	r, pv, ap := work[:n:n], work[n:2*n:2*n], work[2*n:]
	op.ApplyDagger(r, b)
	st.Flops += p.FlopsPerApply
	rhsNorm := math.Sqrt(linalg.NormSq(r))
	// N = D^dag D on one system: io[:1] is ap, io[1:2] x and io[2:] pv.
	normal, io := normalOf[complex128](op), [][]complex128{ap, x, pv}
	if x0 != nil {
		normal.ApplyNormal(io[:1], io[1:2])
		st.Flops += 2 * p.FlopsPerApply
		linalg.Axpy(-1, ap, r)
	}
	copy(pv, r)

	rr := linalg.NormSq(r)
	// Inner target on the normal-equation residual; tightened whenever a
	// true-residual check fails.
	neTarget := p.Tol * rhsNorm
	// Stagnation watch: a converging CG makes new residual minima
	// regularly; a window with none means the iteration is spinning.
	bestRR := rr
	sinceBest := 0

	trueResidual := func() float64 {
		op.Apply(ap, x)
		st.Flops += p.FlopsPerApply
		d := linalg.ReduceFloat64(n, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				e := ap[i] - b[i]
				s += real(e)*real(e) + imag(e)*imag(e)
			}
			return s
		})
		return math.Sqrt(d) / bNorm
	}

	for st.Iterations < p.MaxIter {
		if err := interrupted(ctx); err != nil {
			st.Elapsed = time.Since(start)
			return x, st, fmt.Errorf("solver: interrupted after %d iterations: %w", st.Iterations, err)
		}
		// ap = N p = D^dag D p.
		normal.ApplyNormal(io[:1], io[2:])
		st.Flops += 2 * p.FlopsPerApply
		st.Iterations++

		pap := real(linalg.Dot(pv, ap))
		if math.IsNaN(pap) || math.IsInf(pap, 0) {
			st.Elapsed = time.Since(start)
			return x, st, ErrDiverged
		}
		if pap <= 0 {
			st.Elapsed = time.Since(start)
			st.TrueResidual = trueResidual()
			return x, st, ErrBreakdown
		}
		alpha := complex(rr/pap, 0)
		linalg.Axpy(alpha, pv, x)
		linalg.Axpy(-alpha, ap, r)
		rrNew := linalg.NormSq(r)
		if p.RecordResiduals {
			st.Residuals = append(st.Residuals, math.Sqrt(rrNew))
		}
		if math.IsNaN(rrNew) || math.IsInf(rrNew, 0) {
			st.Elapsed = time.Since(start)
			return x, st, ErrDiverged
		}
		if rrNew < bestRR {
			bestRR = rrNew
			sinceBest = 0
		} else if sinceBest++; p.StagnationWindow > 0 && sinceBest >= p.StagnationWindow {
			st.TrueResidual = trueResidual()
			st.Elapsed = time.Since(start)
			return x, st, ErrDiverged
		}

		if math.Sqrt(rrNew) <= neTarget {
			if res := trueResidual(); res <= p.Tol {
				st.Converged = true
				st.TrueResidual = res
				st.Elapsed = time.Since(start)
				return x, st, nil
			}
			// Normal residual converged but true residual lags; tighten.
			neTarget *= 0.1
		}
		beta := complex(rrNew/rr, 0)
		linalg.Xpay(r, beta, pv)
		rr = rrNew
	}
	st.TrueResidual = trueResidual()
	st.Converged = st.TrueResidual <= p.Tol
	st.Elapsed = time.Since(start)
	if !st.Converged {
		return x, st, ErrMaxIter
	}
	return x, st, nil
}
