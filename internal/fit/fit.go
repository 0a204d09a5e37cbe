// Package fit provides the nonlinear least-squares machinery of the gA
// analysis: a Levenberg-Marquardt minimiser with numerical Jacobians,
// chi-square against independent errors, and the fit models of the
// paper's Fig. 1 - the effective-coupling plateau with excited-state
// contamination, and the traditional fixed-sink ratio.
package fit

import (
	"errors"
	"fmt"
	"math"

	"femtoverse/internal/linalg"
)

// Func is a parametric model y = f(params, x).
type Func func(params []float64, x float64) float64

// Result reports a completed fit.
type Result struct {
	Params     []float64
	Chi2       float64
	DOF        int
	Iterations int
	Converged  bool
}

// Chi2PerDOF returns the reduced chi-square.
func (r Result) Chi2PerDOF() float64 {
	if r.DOF <= 0 {
		return math.NaN()
	}
	return r.Chi2 / float64(r.DOF)
}

// The minimiser's settings: the iteration cap, the relative chi2
// improvement that counts as converged, and the initial damping.
const (
	maxIter = 200
	tol     = 1e-10
	lambda0 = 1e-3
)

// ErrSingular is returned when the normal equations cannot be solved even
// with heavy damping.
var ErrSingular = errors.New("fit: singular normal equations")

// Problem is a weighted least-squares problem: minimise sum_i W_i r_i^2
// with r_i = y_i - f(p, x_i) and W the diagonal weights.
type Problem struct {
	F  Func
	Xs []float64
	Ys []float64
	// W holds the n weights 1/sigma_i^2 from NewUncorrelated.
	W []float64
}

// NewUncorrelated builds a Problem from independent errors sigma_i.
func NewUncorrelated(f Func, xs, ys, sigmas []float64) (*Problem, error) {
	n := len(xs)
	if len(ys) != n || len(sigmas) != n {
		return nil, fmt.Errorf("fit: length mismatch %d/%d/%d", len(xs), len(ys), len(sigmas))
	}
	w := make([]float64, n)
	for i, s := range sigmas {
		if s <= 0 {
			return nil, fmt.Errorf("fit: sigma[%d] = %g must be positive", i, s)
		}
		w[i] = 1 / (s * s)
	}
	return &Problem{F: f, Xs: xs, Ys: ys, W: w}, nil
}

// Chi2 evaluates the weighted chi-square at the given parameters.
func (p *Problem) Chi2(params []float64) float64 {
	chi2 := 0.0
	for i, x := range p.Xs {
		r := p.Ys[i] - p.F(params, x)
		chi2 += r * p.W[i] * r
	}
	return chi2
}

// jacobian computes d f / d p_k at every x by central differences.
func (p *Problem) jacobian(params []float64) []float64 {
	n := len(p.Xs)
	k := len(params)
	jac := make([]float64, n*k)
	pp := append([]float64(nil), params...)
	for c := 0; c < k; c++ {
		h := 1e-7 * (1 + math.Abs(params[c]))
		pp[c] = params[c] + h
		for i := 0; i < n; i++ {
			jac[i*k+c] = p.F(pp, p.Xs[i])
		}
		pp[c] = params[c] - h
		for i := 0; i < n; i++ {
			jac[i*k+c] = (jac[i*k+c] - p.F(pp, p.Xs[i])) / (2 * h)
		}
		pp[c] = params[c]
	}
	return jac
}

// Solve runs Levenberg-Marquardt from the initial guess p0.
func (p *Problem) Solve(p0 []float64) (Result, error) {
	n := len(p.Xs)
	k := len(p0)
	if n < k {
		return Result{}, fmt.Errorf("fit: %d points cannot constrain %d parameters", n, k)
	}
	params := append([]float64(nil), p0...)
	chi2 := p.Chi2(params)
	lambda := lambda0
	res := Result{DOF: n - k}

	r := make([]float64, n)
	grad := make([]float64, k)
	hess := make([]float64, k*k)
	damped := make([]float64, k*k)

	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		jac := p.jacobian(params)
		for i := 0; i < n; i++ {
			r[i] = p.Ys[i] - p.F(params, p.Xs[i])
		}
		// grad = J^T W r ; hess = J^T W J, one row of J per point.
		for a := 0; a < k; a++ {
			grad[a] = 0
			for b := 0; b < k; b++ {
				hess[a*k+b] = 0
			}
		}
		for i := 0; i < n; i++ {
			wr := p.W[i] * r[i]
			for a := 0; a < k; a++ {
				grad[a] += jac[i*k+a] * wr
				for b := 0; b < k; b++ {
					hess[a*k+b] += jac[i*k+a] * (p.W[i] * jac[i*k+b])
				}
			}
		}

		improved := false
		for attempt := 0; attempt < 25; attempt++ {
			copy(damped, hess)
			for a := 0; a < k; a++ {
				damped[a*k+a] *= 1 + lambda
				if damped[a*k+a] == 0 {
					damped[a*k+a] = lambda
				}
			}
			step, err := linalg.SolveReal(k, damped, grad)
			if err != nil {
				lambda *= 10
				continue
			}
			trial := make([]float64, k)
			for a := range trial {
				trial[a] = params[a] + step[a]
			}
			trialChi2 := p.Chi2(trial)
			if !math.IsNaN(trialChi2) && trialChi2 < chi2 {
				rel := (chi2 - trialChi2) / (chi2 + 1e-300)
				copy(params, trial)
				chi2 = trialChi2
				lambda = math.Max(lambda*0.3, 1e-12)
				improved = true
				if rel < tol {
					res.Params = params
					res.Chi2 = chi2
					res.Converged = true
					return res, nil
				}
				break
			}
			lambda *= 10
			if lambda > 1e12 {
				break
			}
		}
		if !improved {
			// Local minimum (or singular): accept if chi2 is finite.
			res.Params = params
			res.Chi2 = chi2
			res.Converged = !math.IsNaN(chi2) && !math.IsInf(chi2, 0)
			if !res.Converged {
				return res, ErrSingular
			}
			return res, nil
		}
	}
	res.Params = params
	res.Chi2 = chi2
	res.Converged = true
	return res, nil
}

// Models of the gA analysis.

// GeffModel is the paper's Fig. 1 fit form for the effective coupling:
// g_eff(t) = gA + c1 * exp(-dE t), params = [gA, c1, dE]; the excited
// contamination dies away leaving the plateau gA.
func GeffModel(p []float64, t float64) float64 {
	return p[0] + p[1]*math.Exp(-math.Abs(p[2])*t)
}

// ExcitedPart returns only the contamination term of GeffModel, used to
// produce the paper's "modified results ... after removing the
// contribution from excited states" (black points of Fig. 1).
func ExcitedPart(p []float64, t float64) float64 {
	return p[1] * math.Exp(-math.Abs(p[2])*t)
}

// TradRatioModel is the traditional fixed-sink ratio
// R(tau; T) = gA + b [exp(-dE tau) + exp(-dE (T - tau))],
// params = [gA, b, dE], with x encoding tau and the caller fixing T via
// closure.
func TradRatioModel(tSep float64) Func {
	return func(p []float64, tau float64) float64 {
		dE := math.Abs(p[2])
		return p[0] + p[1]*(math.Exp(-dE*tau)+math.Exp(-dE*(tSep-tau)))
	}
}
