package core

import (
	"femtoverse/internal/cache"
)

// specKey starts a content address in the given namespace with the part
// of the identity every result derived from a campaign spec shares:
// geometry, action, ensemble generation and solver policy, in a fixed
// order. The batch size (NConfigs) is deliberately absent - gauge
// configuration i is a pure function of the seed, the action parameters
// and i, so a short campaign and a long campaign over the same ensemble
// share their prefix solves. Callers append what distinguishes their
// result (configuration index, source, insertion) and Build. The fields,
// their names and their order are the cache identity: changing any of
// them orphans every stored entry, which the pinned key literals in the
// tests exist to catch.
func specKey(namespace string, spec RealConfig) *cache.KeyBuilder {
	return cache.NewKey(namespace).
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
		Int("prec", int64(spec.Prec))
}

// SolveKey returns the content address of configuration cfg's correlator
// pair under spec: every input that determines the correlators bitwise.
// It is the cache identity shared by every driver in the repository, so a
// solve performed by a batch campaign is a warm hit for a service tenant
// and vice versa. The source construction is named explicitly so a future
// smeared or displaced source cannot alias the point source entries.
func SolveKey(spec RealConfig, cfg int) cache.Key {
	return specKey("core/fh-correlators/v1", spec).
		Str("source", "point0-axial").
		Int("cfg", int64(cfg)).
		Build()
}

// cacheLookup consults the result store (nil: always a miss) for
// configuration i. A decode failure is treated as a miss - the entry is
// re-solved and re-stored - never as an error: the cache can only ever
// cost a recompute.
func cacheLookup(store *cache.Cache, spec RealConfig, i int) (c2, cfh []float64, ok bool) {
	if store == nil {
		return nil, nil, false
	}
	blob, ok := store.Get(SolveKey(spec, i))
	if !ok {
		return nil, nil, false
	}
	series, err := cache.DecodeFloatSeries(blob, 2)
	if err != nil {
		return nil, nil, false
	}
	return series[0], series[1], true
}
