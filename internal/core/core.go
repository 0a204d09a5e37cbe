// Package core assembles the paper's headline calculation: the nucleon
// axial coupling gA and the Standard-Model neutron lifetime, computed
// with the Feynman-Hellmann method that gives the paper its exponential
// reduction in time-to-solution. Two complementary paths exercise it:
//
//   - RunSynthetic reproduces the statistical content of Fig. 1 on the
//     a09m310-calibrated ensemble generator: the FH analysis on N
//     samples against the traditional fixed-sink analysis on 10 N
//     samples, the excited-state subtraction, and the lifetime;
//   - Run (RunReal with the zero options) runs the identical algorithm -
//     12+12 Mobius domain-wall solves, FH sequential sources,
//     epsilon-tensor contractions - on real laptop-scale gauge
//     configurations, demonstrating that every stage of the production
//     pipeline is implemented, not mocked. Campaign.Run is the one run
//     path underneath: RunOptions chooses the executor and what is
//     attached to it, never the physics.
package core

import (
	"context"
	"fmt"

	"femtoverse/internal/dirac"
	"femtoverse/internal/ensemble"
	"femtoverse/internal/physics"
	jobrt "femtoverse/internal/runtime"
	"femtoverse/internal/solver"
)

// SyntheticResult is the outcome of the statistical (Fig. 1) analysis.
type SyntheticResult struct {
	Params ensemble.FHParams
	// FH is the Feynman-Hellmann extraction on N samples.
	FH physics.GAResult
	// Trad is the traditional extraction on TradFactor x N samples.
	Trad       physics.GAResult
	TradPoints []physics.TradPoint
	TradFactor int
	// Neutron lifetime from the FH coupling, Eq. (1).
	TauSeconds, TauErr float64
}

// RunSynthetic runs the full Fig. 1 analysis with nSamples FH
// configurations and tradFactor times as many traditional ones.
func RunSynthetic(nSamples, tradFactor int, seed int64) (*SyntheticResult, error) {
	p := ensemble.A09M310(nSamples, seed)
	c2, cfh, err := ensemble.GenerateFH(p)
	if err != nil {
		return nil, err
	}
	fh, err := physics.ExtractFH(c2, cfh, 1, 10)
	if err != nil {
		return nil, fmt.Errorf("core: FH extraction: %w", err)
	}

	pt := ensemble.A09M310(nSamples*tradFactor, seed+1)
	trad, err := ensemble.GenerateTraditional(pt, []int{10, 12, 14})
	if err != nil {
		return nil, err
	}
	tr, pts, err := physics.ExtractTraditional(trad)
	if err != nil {
		return nil, fmt.Errorf("core: traditional extraction: %w", err)
	}

	tau, tauErr := physics.NeutronLifetime(fh.GA, fh.Err)
	return &SyntheticResult{
		Params:     p,
		FH:         fh,
		Trad:       tr,
		TradPoints: pts,
		TradFactor: tradFactor,
		TauSeconds: tau,
		TauErr:     tauErr,
	}, nil
}

// SpeedupFactor returns the effective statistical speed-up of the FH
// method: the factor by which the traditional method would need to scale
// its (already tradFactor-times-larger) sample size to match the FH
// error, since errors shrink only like 1/sqrt(N).
func (r *SyntheticResult) SpeedupFactor() float64 {
	ratio := r.Trad.Err / r.FH.Err
	return float64(r.TradFactor) * ratio * ratio
}

// RealConfig configures the real-lattice pipeline.
type RealConfig struct {
	Dims        [4]int
	Params      dirac.MobiusParams
	NConfigs    int
	Seed        int64
	Beta        float64
	ThermSweeps int
	GapSweeps   int
	Tol         float64
	Prec        solver.Precision
}

// DefaultRealConfig returns a configuration that runs in seconds.
func DefaultRealConfig() RealConfig {
	return RealConfig{
		Dims:        [4]int{2, 2, 2, 8},
		Params:      dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.2},
		NConfigs:    3,
		Seed:        11,
		Beta:        5.8,
		ThermSweeps: 5,
		GapSweeps:   2,
		Tol:         1e-8,
		Prec:        solver.Single,
	}
}

// MinConfigs is the smallest campaign Run accepts: the
// effective coupling is jackknifed over configurations, and a jackknife
// needs two samples.
const MinConfigs = 2

// Validate rejects a spec the pipeline cannot finish, so that callers get
// an error up front instead of a failed first solve or a panic from the
// analysis at the end. The extent rule is lattice.New's - every extent
// even and at least 2, for red-black preconditioning - checked without
// building the geometry.
func (cfg RealConfig) Validate() error {
	for mu, d := range cfg.Dims {
		if d < 2 || d%2 != 0 {
			return fmt.Errorf("core: extent %d in direction %d; need an even extent >= 2", d, mu)
		}
	}
	if err := cfg.Params.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if cfg.NConfigs < MinConfigs {
		return fmt.Errorf("core: NConfigs = %d; the jackknife over configurations needs at least %d", cfg.NConfigs, MinConfigs)
	}
	return nil
}

// RealResult is the outcome of the real-lattice FH pipeline.
type RealResult struct {
	// C2 and CFH are per-configuration proton two-point and FH
	// three-point correlators.
	C2, CFH [][]float64
	// Geff / GeffErr is the jackknifed effective coupling curve.
	Geff, GeffErr []float64
	// SolvesPerConfig counts Dirac solves (12 forward + 12 FH).
	SolvesPerConfig int
}

// Run executes the whole FH campaign of cfg - every configuration
// through Campaign.Run under opts, then Campaign.Result - and returns the
// analysis with the job runtime's report (nil at Workers == 0).
func Run(ctx context.Context, cfg RealConfig, opts RunOptions) (*RealResult, *jobrt.Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	camp := NewCampaign(cfg)
	done, rep, err := camp.Run(ctx, cfg.NConfigs, opts)
	if err != nil {
		return nil, rep, err
	}
	if done < cfg.NConfigs {
		return nil, rep, fmt.Errorf("core: %d of %d configurations completed", done, cfg.NConfigs)
	}
	res, err := camp.Result()
	return res, rep, err
}

// RunReal is Run with the zero options: the sequential, uninstrumented,
// uncached pipeline on the calling goroutine. It keeps its own name and
// signature because it is the product the benchmark times and the bit
// pins hold.
func RunReal(cfg RealConfig) (*RealResult, error) {
	res, _, err := Run(context.Background(), cfg, RunOptions{})
	return res, err
}
