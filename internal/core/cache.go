package core

import (
	"context"
	"fmt"

	"femtoverse/internal/cache"
	"femtoverse/internal/contract"
	"femtoverse/internal/gauge"
	"femtoverse/internal/stats"

	jobrt "femtoverse/internal/runtime"
)

// solveKey is the content address of one configuration's correlator pair:
// every input that determines the correlators bitwise, in a fixed order.
// The batch size (NConfigs) is deliberately absent - gauge configuration i
// is a pure function of the seed, the action parameters and i, so a short
// campaign and a long campaign over the same ensemble share their prefix
// solves. The source construction is named explicitly so a future smeared
// or displaced source cannot alias the point source entries.
func solveKey(spec RealConfig, cfg int) cache.Key {
	return cache.NewKey("core/fh-correlators/v1").
		Int("nx", int64(spec.Dims[0])).
		Int("ny", int64(spec.Dims[1])).
		Int("nz", int64(spec.Dims[2])).
		Int("nt", int64(spec.Dims[3])).
		Int("ls", int64(spec.Params.Ls)).
		Float("m5", spec.Params.M5).
		Float("b5", spec.Params.B5).
		Float("c5", spec.Params.C5).
		Float("m", spec.Params.M).
		Int("seed", spec.Seed).
		Float("beta", spec.Beta).
		Int("therm", int64(spec.ThermSweeps)).
		Int("gap", int64(spec.GapSweeps)).
		Float("tol", spec.Tol).
		Int("prec", int64(spec.Prec)).
		Str("source", "point0-axial").
		Int("cfg", int64(cfg)).
		Build()
}

// cacheLookup consults the campaign's result cache for configuration i.
// A decode failure is treated as a miss - the entry is re-solved and
// re-stored - never as an error: the cache can only ever cost a recompute.
func (c *Campaign) cacheLookup(i int) (c2, cfh []float64, ok bool) {
	if c.Cache == nil {
		return nil, nil, false
	}
	blob, ok := c.Cache.Get(solveKey(c.Spec, i))
	if !ok {
		return nil, nil, false
	}
	series, err := cache.DecodeFloatSeries(blob, 2)
	if err != nil {
		return nil, nil, false
	}
	return series[0], series[1], true
}

// solveThroughCache runs one configuration's solve+contract stage through
// the content-addressed cache: a hit (from this process or a previous
// one) skips the solver entirely; a miss runs the shared compute path
// exactly once across all concurrent campaigns on the same store (per-key
// singleflight) and persists the correlators. Because solves are bitwise
// deterministic, the decoded correlators are bit-for-bit what the solver
// would have produced.
func (c *Campaign) solveThroughCache(tctx context.Context, i int, u *gauge.Field, restart *int) (c2, cfh []float64, err error) {
	c2, cfh, restarts, err := SolveConfigCached(tctx, c.Spec, i,
		func() (*gauge.Field, error) { return u, nil }, c.Cache, c.Obs.Metrics)
	if err != nil {
		return nil, nil, err
	}
	*restart = restarts
	return c2, cfh, nil
}

// realResultFromCampaign assembles the RealResult of a completed
// campaign: the per-configuration correlators plus the jackknifed
// effective coupling.
func realResultFromCampaign(camp *Campaign) *RealResult {
	cfg := camp.Spec
	res := &RealResult{SolvesPerConfig: 24}
	res.C2 = make([][]float64, cfg.NConfigs)
	res.CFH = make([][]float64, cfg.NConfigs)
	for i := range res.C2 {
		res.C2[i] = camp.C2[i]
		res.CFH[i] = camp.CFH[i]
	}
	tExt := cfg.Dims[3]
	joined := make([][]float64, len(res.C2))
	for i := range joined {
		v := make([]float64, 2*tExt)
		copy(v[:tExt], res.C2[i])
		copy(v[tExt:], res.CFH[i])
		joined[i] = v
	}
	res.Geff, res.GeffErr = stats.JackknifeVec(joined, func(mean []float64) []float64 {
		return contract.EffectiveGA(mean[tExt:], mean[:tExt])
	})
	return res
}

// RunRealCached is the sequential RunReal with a result cache attached:
// configurations already cached (by any campaign or process sharing the
// store) are served without a solve, and the output is bit-for-bit
// RunReal's. A nil store degrades to plain uncached execution.
func RunRealCached(cfg RealConfig, store *cache.Cache) (*RealResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	camp := NewCampaign(cfg)
	camp.Cache = store
	done, err := camp.RunBatch(cfg.NConfigs)
	if err != nil {
		return nil, err
	}
	if done < cfg.NConfigs {
		return nil, fmt.Errorf("core: %d of %d configurations completed", done, cfg.NConfigs)
	}
	return realResultFromCampaign(camp), nil
}

// RunRealConcurrentCached is RunRealConcurrentObs with a result cache
// attached to the campaign. A nil store degrades to plain uncached
// execution.
func RunRealConcurrentCached(ctx context.Context, cfg RealConfig, workers int, sinks ObsConfig, store *cache.Cache) (*RealResult, *jobrt.Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	camp := NewCampaign(cfg)
	camp.Obs = sinks
	camp.Cache = store
	done, rep, err := camp.RunBatchConcurrent(ctx, cfg.NConfigs, workers)
	if err != nil {
		return nil, rep, err
	}
	if done < cfg.NConfigs {
		return nil, rep, fmt.Errorf("core: %d of %d configurations completed", done, cfg.NConfigs)
	}
	return realResultFromCampaign(camp), rep, nil
}
