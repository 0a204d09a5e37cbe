// Package physics assembles the headline analyses of the paper: the
// extraction of the nucleon axial coupling gA from Feynman-Hellmann or
// traditional three-point data (Fig. 1), and the Standard-Model neutron
// lifetime it implies through Eq. (1),
//
//	tau_n = (5172.0 +- 1.0) / (1 + 3 gA^2) seconds.
package physics

import (
	"fmt"
	"math"
	"sort"

	"femtoverse/internal/contract"
	"femtoverse/internal/fit"
	"femtoverse/internal/stats"
)

// LifetimeNumerator and its uncertainty are the Standard-Model prefactor
// of Eq. (1) (Czarnecki, Marciano, Sirlin, PRL 120, 202002).
const (
	LifetimeNumerator    = 5172.0
	LifetimeNumeratorErr = 1.0
)

// NeutronLifetime evaluates Eq. (1) with full error propagation from both
// the numerator uncertainty and the gA uncertainty.
func NeutronLifetime(gA, gAErr float64) (tau, tauErr float64) {
	den := 1 + 3*gA*gA
	tau = LifetimeNumerator / den
	dNum := LifetimeNumeratorErr / den
	dGA := LifetimeNumerator * 6 * gA / (den * den) * gAErr
	return tau, math.Hypot(dNum, dGA)
}

// GAResult reports an extraction of the axial coupling.
type GAResult struct {
	GA         float64
	Err        float64
	Chi2PerDOF float64
	FitRange   [2]int
	NSamples   int
	// Geff / GeffErr are the effective-coupling points entering the fit
	// (the grey symbols of Fig. 1); Subtracted are the points after the
	// fitted excited-state contamination is removed (black symbols).
	Times      []float64
	Geff       []float64
	GeffErr    []float64
	Subtracted []float64
}

// Precision returns the relative precision of the extraction in percent.
func (r GAResult) Precision() float64 {
	if r.GA == 0 {
		return math.Inf(1)
	}
	return 100 * math.Abs(r.Err/r.GA)
}

// ExtractFH runs the paper's analysis on Feynman-Hellmann data: build
// g_eff(t) from the ratio of ensemble-averaged correlators, fit
// gA + c1*exp(-dE t) over [tmin, tmax], and jackknife the entire fit for
// the uncertainty. c2 and cfh are per-configuration correlators [N][T].
func ExtractFH(c2, cfh [][]float64, tmin, tmax int) (GAResult, error) {
	n := len(c2)
	if n < 2 || len(cfh) != n {
		return GAResult{}, fmt.Errorf("physics: need matching ensembles, got %d/%d", len(c2), len(cfh))
	}
	tExt := len(c2[0])
	if tmin < 0 || tmax >= tExt-1 || tmax-tmin < 3 {
		return GAResult{}, fmt.Errorf("physics: bad fit range [%d, %d] for T = %d", tmin, tmax, tExt)
	}
	// Stack c2 and cfh into one sample vector so the jackknife resamples
	// them coherently.
	joined := make([][]float64, n)
	for i := range joined {
		v := make([]float64, 2*tExt)
		copy(v[:tExt], c2[i])
		copy(v[tExt:], cfh[i])
		joined[i] = v
	}
	geffOf := func(mean []float64) []float64 {
		return contract.EffectiveGA(mean[tExt:], mean[:tExt])
	}
	geff, geffErr := stats.JackknifeVec(joined, geffOf)

	xs := make([]float64, 0, tmax-tmin+1)
	ys := make([]float64, 0, tmax-tmin+1)
	sg := make([]float64, 0, tmax-tmin+1)
	for t := tmin; t <= tmax; t++ {
		xs = append(xs, float64(t))
		ys = append(ys, geff[t])
		sg = append(sg, geffErr[t])
	}
	// solveGeff fits the plateau-plus-contamination model with several
	// starting points and returns the best converged result whose gap
	// parameter is physical (bounded away from the c1/gA degeneracy at
	// dE -> 0); failures return NaN parameters.
	solveGeff := func(yy []float64) (fit.Result, bool) {
		prob, err := fit.NewUncorrelated(fit.GeffModel, xs, yy, sg)
		if err != nil {
			return fit.Result{}, false
		}
		late := yy[len(yy)-1]
		early := yy[0]
		starts := [][]float64{
			{late, early - late, 0.5},
			{late, early - late, 1.0},
			{late, (early - late) / 2, 0.3},
		}
		var best fit.Result
		ok := false
		for _, s0 := range starts {
			res, err := prob.Solve(s0)
			if err != nil || !res.Converged {
				continue
			}
			dE := math.Abs(res.Params[2])
			if dE < 0.02 || dE > 5 || math.IsNaN(res.Chi2) {
				continue
			}
			if !ok || res.Chi2 < best.Chi2 {
				best, ok = res, true
			}
		}
		return best, ok
	}
	// Central nonlinear fit determines the excited-state gap; the
	// per-resample fits then hold dE fixed, which makes them *linear* in
	// (gA, c1) and therefore unconditionally stable - the standard
	// two-step treatment that keeps jackknife errors well behaved.
	res, ok := solveGeff(ys)
	if !ok {
		return GAResult{}, fmt.Errorf("physics: central excited-state fit failed")
	}
	dE := math.Abs(res.Params[2])

	// linearGA solves the 2x2 weighted normal equations for
	// y = gA + c1 exp(-dE t) with dE fixed.
	linearGA := func(yy []float64) float64 {
		var s11, s1e, see, sy1, sye float64
		for i, x := range xs {
			w := 1 / (sg[i] * sg[i])
			e := math.Exp(-dE * x)
			s11 += w
			s1e += w * e
			see += w * e * e
			sy1 += w * yy[i]
			sye += w * yy[i] * e
		}
		det := s11*see - s1e*s1e
		if det == 0 {
			return math.NaN()
		}
		return (sy1*see - sye*s1e) / det
	}
	fitGA := func(mean []float64) float64 {
		gf := geffOf(mean)
		yy := make([]float64, len(xs))
		for i, x := range xs {
			yy[i] = gf[int(x)]
		}
		return linearGA(yy)
	}
	gaVal, gaErr := stats.Jackknife(joined, fitGA)
	if math.IsNaN(gaVal) {
		return GAResult{}, fmt.Errorf("physics: FH central fit failed")
	}

	out := GAResult{
		GA: gaVal, Err: gaErr,
		Chi2PerDOF: res.Chi2PerDOF(),
		FitRange:   [2]int{tmin, tmax},
		NSamples:   n,
	}
	for t := 0; t < len(geff); t++ {
		out.Times = append(out.Times, float64(t))
		out.Geff = append(out.Geff, geff[t])
		out.GeffErr = append(out.GeffErr, geffErr[t])
		out.Subtracted = append(out.Subtracted, geff[t]-fit.ExcitedPart(res.Params, float64(t)))
	}
	return out, nil
}

// ExtractFHWindowAverage runs ExtractFH over several fit-window choices
// and combines them with AIC model averaging, the treatment the
// collaboration's refined gA analyses adopt: no single hand-picked tmin,
// and a model-spread systematic folded into the error.
func ExtractFHWindowAverage(c2, cfh [][]float64, tmins []int, tmax int) (GAResult, fit.Average, error) {
	if len(tmins) == 0 {
		return GAResult{}, fit.Average{}, fmt.Errorf("physics: no fit windows")
	}
	maxPoints := 0
	var cands []fit.Candidate
	var results []GAResult
	for _, tmin := range tmins {
		if n := tmax - tmin + 1; n > maxPoints {
			maxPoints = n
		}
	}
	for _, tmin := range tmins {
		res, err := ExtractFH(c2, cfh, tmin, tmax)
		if err != nil {
			// A failed window simply does not enter the average.
			continue
		}
		nPts := tmax - tmin + 1
		dof := nPts - 3
		cands = append(cands, fit.Candidate{
			Value:  res.GA,
			Err:    res.Err,
			Chi2:   res.Chi2PerDOF * float64(dof),
			Params: 3,
			Cut:    maxPoints - nPts,
			Label:  fmt.Sprintf("tmin=%d", tmin),
		})
		results = append(results, res)
	}
	avg, err := fit.ModelAverage(cands)
	if err != nil {
		return GAResult{}, fit.Average{}, fmt.Errorf("physics: window average: %w", err)
	}
	out := results[avg.Best]
	out.GA = avg.Value
	out.Err = avg.Err
	return out, avg, nil
}

// TradPoint is one traditional-method data point for plotting: the ratio
// at the symmetric midpoint of a fixed source-sink separation.
type TradPoint struct {
	TSep     int
	Midpoint float64
	Err      float64
}

// ExtractTraditional runs the conventional fixed-sink analysis: for each
// source-sink separation fit the ratio plateau with its symmetric
// excited-state form, then combine separations by inverse-variance
// weighting. data maps tsep -> per-configuration ratios [N][tsep+1].
func ExtractTraditional(data map[int][][]float64) (GAResult, []TradPoint, error) {
	if len(data) == 0 {
		return GAResult{}, nil, fmt.Errorf("physics: no traditional data")
	}
	// Iterate separations in sorted order: map-range order would shuffle
	// the returned points and perturb the inverse-variance sums in the
	// last bits from run to run.
	tseps := make([]int, 0, len(data))
	for ts := range data {
		tseps = append(tseps, ts)
	}
	sort.Ints(tseps)
	var points []TradPoint
	var vals, errs []float64
	nSamples := 0
	for _, ts := range tseps {
		samples := data[ts]
		nSamples = len(samples)
		mid := ts / 2
		fitOne := func(mean []float64) float64 {
			// Fit the symmetric ratio model over the interior points.
			var xs, ys, sg []float64
			for tau := 1; tau < ts; tau++ {
				xs = append(xs, float64(tau))
				ys = append(ys, mean[tau])
				sg = append(sg, 1) // equal weights inside one tsep
			}
			prob, err := fit.NewUncorrelated(fit.TradRatioModel(float64(ts)), xs, ys, sg)
			if err != nil {
				return math.NaN()
			}
			res, err := prob.Solve([]float64{mean[mid], 0.1, 0.5})
			if err != nil || !res.Converged {
				return math.NaN()
			}
			return res.Params[0]
		}
		v, e := stats.Jackknife(samples, fitOne)
		if math.IsNaN(v) || e == 0 {
			continue
		}
		vals = append(vals, v)
		errs = append(errs, e)
		mv, me := stats.Jackknife(samples, func(mean []float64) float64 { return mean[mid] })
		points = append(points, TradPoint{TSep: ts, Midpoint: mv, Err: me})
	}
	if len(vals) == 0 {
		return GAResult{}, nil, fmt.Errorf("physics: all traditional fits failed")
	}
	// Inverse-variance combination.
	num, den := 0.0, 0.0
	for i, v := range vals {
		w := 1 / (errs[i] * errs[i])
		num += w * v
		den += w
	}
	return GAResult{GA: num / den, Err: math.Sqrt(1 / den), NSamples: nSamples}, points, nil
}
