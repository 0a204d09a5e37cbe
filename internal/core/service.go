package core

import (
	"context"
	"fmt"

	"femtoverse/internal/cache"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/obs"
)

// This file is the stateless service surface of the campaign core: the
// per-configuration step Campaign.Run is built from, exported so that a
// long-running multi-tenant driver (internal/serve) can run one
// configuration at a time on its own scheduler while staying bit-for-bit
// compatible with the campaigns - the same content address (SolveKey),
// the same compute path, the same counters.

// EnsembleFor regenerates the spec's gauge ensemble. Configurations are
// a pure function of the spec (seed, action, update counts), which is
// what lets a service driver regenerate them on demand instead of
// persisting them.
func EnsembleFor(spec RealConfig) ([]*gauge.Field, error) {
	g, err := lattice.New(spec.Dims)
	if err != nil {
		return nil, err
	}
	return gauge.Ensemble(g, spec.Seed, spec.Beta, spec.NConfigs,
		spec.ThermSweeps, spec.GapSweeps), nil
}

// SolveConfigCached produces configuration i's correlators through the
// content-addressed store: a warm key is served without touching the
// field (the lazy field callback is never invoked), and a cold key runs
// the shared solve+contract path exactly once across all concurrent
// callers of the store (per-key singleflight) before persisting. With a
// nil store it degrades to a plain solve. The solver-work counters land
// in reg (nil-safe) only when a solve actually runs, so "zero solver
// iterations" is observable for fully warm requests; so does the
// "contract" span around the contractions, on ctx's trace scope (none
// without one), which is how a caller splits its solve time into
// propagators and contractions. restarts reports
// the solver's precision-escalation restarts of this call's own compute
// (0 for cache and coalesced hits).
func SolveConfigCached(ctx context.Context, spec RealConfig, i int, field func() (*gauge.Field, error), store *cache.Cache, reg *obs.Registry) (c2, cfh []float64, restarts int, err error) {
	compute := func() ([]byte, error) {
		u, err := field()
		if err != nil {
			return nil, err
		}
		p, err := solveConfig(ctx, spec, u)
		if err != nil {
			return nil, err
		}
		restarts = p.restarts
		reg.Counter("core.configs_solved").Inc()
		reg.Counter("core.solver_iterations").Add(int64(p.iters))
		reg.Counter("core.solver_flops").Add(p.flops)
		span := obs.ScopeFrom(ctx).Begin("contract", "contractions", nil)
		cc2, ccfh := contractConfig(p)
		span.End()
		return cache.EncodeFloatSeries(cc2, ccfh)
	}
	var blob []byte
	if store == nil {
		blob, err = compute()
	} else {
		blob, _, err = store.GetOrCompute(SolveKey(spec, i), compute)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	series, err := cache.DecodeFloatSeries(blob, 2)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: decode correlators for config %d: %w", i, err)
	}
	return series[0], series[1], restarts, nil
}
