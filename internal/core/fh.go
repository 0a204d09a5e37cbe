package core

import (
	"context"
	"fmt"

	"femtoverse/internal/cache"
	"femtoverse/internal/contract"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/prop"
)

// Insertion names one Feynman-Hellmann current insertion: the spin
// structure inserted at every intermediate time. The name is part of the
// cache identity together with the matrix elements, so two insertions
// with the same name but different structures can never alias.
type Insertion struct {
	Name  string
	Gamma linalg.SpinMatrix
}

// FHCampaignConfig configures a multi-insertion FH campaign: one base
// propagator per configuration feeds every insertion's sequential solve,
// which is the paper's amortization - and, with a result cache attached,
// the base propagators are shared across insertions, campaigns, and
// process restarts instead of being re-solved. Insertion names must be
// distinct: they key the result's CFH map.
type FHCampaignConfig struct {
	RealConfig
	Insertions []Insertion
}

// FHCampaignResult holds the campaign's correlators and the count of
// propagator computations the solver actually performed (cache misses);
// a fully warm campaign reports zero for both.
type FHCampaignResult struct {
	// C2 is the proton two-point correlator per configuration.
	C2 [][]float64
	// CFH maps insertion name to the per-configuration FH three-point
	// correlators.
	CFH map[string][][]float64
	// BaseSolves and FHSolves count 12-component propagator computations
	// actually executed, not served from cache.
	BaseSolves, FHSolves int
}

// basePropKey is the content address of one configuration's point-source
// light-quark propagator.
func basePropKey(cfg RealConfig, i int) cache.Key {
	return propKeyBuilder(cfg, i).Str("kind", "base-point0").Build()
}

// fhPropKey is the content address of one configuration's FH sequential
// propagator for the given insertion. The gamma matrix elements are part
// of the identity, not just the name.
func fhPropKey(cfg RealConfig, i int, ins Insertion) cache.Key {
	b := propKeyBuilder(cfg, i).Str("kind", "fh-point0").Str("insertion", ins.Name)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			b.Complex(fmt.Sprintf("g%d%d", r, c), ins.Gamma[r][c])
		}
	}
	return b.Build()
}

// propKeyBuilder starts a propagator key: the spec identity every cache
// key in the repository shares (specKey), then the configuration. The
// namespace predates this package's ownership of the campaign and is the
// stored identity: renaming it orphans every cached propagator.
func propKeyBuilder(cfg RealConfig, i int) *cache.KeyBuilder {
	return specKey("workflow/prop/v1", cfg).Int("cfg", int64(i))
}

// propThroughCache returns the propagator for key, computing it at most
// once across all concurrent callers when store is non-nil. The cold path
// round-trips the propagator through the cache codec even for the caller
// that computed it, so cold and warm results are the same bytes by
// construction (the codec is bit-exact, so this costs nothing physical).
func propThroughCache(store *cache.Cache, key cache.Key, g *lattice.Geometry, compute func() (*prop.Propagator, error)) (*prop.Propagator, error) {
	if store == nil {
		return compute()
	}
	blob, _, err := store.GetOrCompute(key, func() ([]byte, error) {
		p, err := compute()
		if err != nil {
			return nil, err
		}
		return cache.EncodeComplexCols(p.Col[:])
	})
	if err != nil {
		return nil, err
	}
	cols, err := cache.DecodeComplexCols(blob, prop.NComp)
	if err != nil {
		return nil, fmt.Errorf("core: decode cached propagator: %w", err)
	}
	p := &prop.Propagator{G: g}
	for j := range p.Col {
		p.Col[j] = cols[j]
	}
	return p, nil
}

// RunFHCampaign measures the proton two-point function and one FH
// three-point function per insertion over the whole ensemble. With a
// non-nil store, every propagator - base and sequential - goes through
// the content-addressed cache: the base solve for a configuration runs
// once no matter how many insertions consume it, and a warm rerun (same
// physics, any process) performs zero solves while reproducing the
// correlators bit for bit.
//
// It is a loop of its own rather than a Campaign.Run because its cache
// unit is the propagator, shared across insertions, where Campaign.Run's
// is the correlator pair SolveKey names.
func RunFHCampaign(ctx context.Context, cfg FHCampaignConfig, store *cache.Cache) (*FHCampaignResult, error) {
	res := &FHCampaignResult{CFH: make(map[string][][]float64, len(cfg.Insertions))}
	for _, ins := range cfg.Insertions {
		if _, dup := res.CFH[ins.Name]; dup {
			return nil, fmt.Errorf("core: insertion name %q used twice; names key the FH correlators", ins.Name)
		}
		res.CFH[ins.Name] = make([][]float64, 0, cfg.NConfigs)
	}
	configs, err := EnsembleFor(cfg.RealConfig)
	if err != nil {
		return nil, err
	}
	for i, u := range configs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The operator stack is built lazily: a fully warm configuration
		// never constructs a solver at all.
		var qs *prop.QuarkSolver
		solverFor := func() (*prop.QuarkSolver, error) {
			if qs != nil {
				return qs, nil
			}
			var err error
			qs, err = quarkSolver(cfg.RealConfig, u)
			return qs, err
		}

		base, err := propThroughCache(store, basePropKey(cfg.RealConfig, i), u.G, func() (*prop.Propagator, error) {
			s, err := solverFor()
			if err != nil {
				return nil, err
			}
			res.BaseSolves++
			return s.ComputePointCtx(ctx, [4]int{0, 0, 0, 0})
		})
		if err != nil {
			return nil, fmt.Errorf("core: config %d base propagator: %w", i, err)
		}
		res.C2 = append(res.C2, contract.Real(contract.Proton2pt(base, base, 0)))

		for _, ins := range cfg.Insertions {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ins := ins
			fh, err := propThroughCache(store, fhPropKey(cfg.RealConfig, i, ins), u.G, func() (*prop.Propagator, error) {
				s, err := solverFor()
				if err != nil {
					return nil, err
				}
				res.FHSolves++
				return s.FHPropagatorCtx(ctx, base, ins.Gamma)
			})
			if err != nil {
				return nil, fmt.Errorf("core: config %d insertion %q: %w", i, ins.Name, err)
			}
			res.CFH[ins.Name] = append(res.CFH[ins.Name],
				contract.Real(contract.ProtonFH3pt(base, base, fh, fh, 0)))
		}
	}
	return res, nil
}
