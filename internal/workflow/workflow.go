// Package workflow models the application pipeline of the paper's
// Fig. 2 at production scale: load a gluonic field configuration, solve
// the Dirac equation for many propagators (about 97% of execution time,
// on GPUs), write and re-read the propagators (I/O, about 0.5%), and tie
// them together in tensor contractions (about 3%, CPU-only). Model
// evaluates that budget from the calibrated performance model,
// reproducing the paper's 96.5 / 3 / 0.5 split and the co-scheduling
// amortization that brings the CPU share to zero. The laptop-scale
// pipeline itself is core.Run; its measured split is the real row of
// Fig. 2.
package workflow

import (
	"femtoverse/internal/machine"
	"femtoverse/internal/perfmodel"
)

// Budget is the three-way application time split of Section VI.
type Budget struct {
	PropagatorSeconds  float64
	ContractionSeconds float64
	IOSeconds          float64
}

// Total returns the summed time.
func (b Budget) Total() float64 {
	return b.PropagatorSeconds + b.ContractionSeconds + b.IOSeconds
}

// Fractions returns the percentage split (propagators, contractions, IO).
func (b Budget) Fractions() (p, c, io float64) {
	t := b.Total()
	if t == 0 {
		return 0, 0, 0
	}
	return 100 * b.PropagatorSeconds / t, 100 * b.ContractionSeconds / t, 100 * b.IOSeconds / t
}

// Amortized returns the budget after mpi_jm co-scheduling: contractions
// run concurrently on the CPUs of the nodes whose GPUs are solving, so
// their wall-clock cost vanishes as long as they fit under the propagator
// time (they do, at 3% of a 97% budget).
func (b Budget) Amortized() Budget {
	out := b
	if b.ContractionSeconds <= b.PropagatorSeconds {
		out.ContractionSeconds = 0
	} else {
		out.ContractionSeconds = b.ContractionSeconds - b.PropagatorSeconds
	}
	return out
}

// ModelConfig parameterizes the production-scale budget model. The
// defaults are calibrated to Section VI of the paper: propagator solves
// consume about 97% of compute, contractions about 3%, and I/O about
// 0.5% of total application time.
type ModelConfig struct {
	M       machine.Machine
	Problem perfmodel.Problem
	// GPUsPerJob is the per-solve job size (paper: 16 on Sierra).
	GPUsPerJob int
	// PropsPerConfig and SolveIters set the GPU workload: the paper
	// quotes ~10,000 propagators per ensemble.
	PropsPerConfig int
	SolveIters     int
	// ContractionsPerProp counts correlator constructions per propagator
	// (sources x sinks x momenta x operators); the calibration constant
	// that lands the CPU share at the paper's ~3%.
	ContractionsPerProp int
	// ContractionFlopsPerSite is the epsilon-tensor cost per 4-D site.
	ContractionFlopsPerSite float64
	// CPUNodeTFlops is the CPU-side compute rate per node.
	CPUNodeTFlops float64
	// FSBandwidthGBs is the parallel-file-system bandwidth per job.
	FSBandwidthGBs float64
}

// DefaultModelConfig returns the calibrated Sierra production model.
func DefaultModelConfig() ModelConfig {
	return ModelConfig{
		M:                       machine.Sierra(),
		Problem:                 perfmodel.Problem{Global: [4]int{48, 48, 48, 64}, Ls: 20},
		GPUsPerJob:              16,
		PropsPerConfig:          200,
		SolveIters:              600,
		ContractionsPerProp:     24,
		ContractionFlopsPerSite: 65000,
		CPUNodeTFlops:           0.5,
		FSBandwidthGBs:          40,
	}
}

// ModelResult is the production-scale budget.
type ModelResult struct {
	Budget          Budget
	JobTFlops       float64 // raw solver rate of one job
	SolveSeconds    float64 // one 12-component propagator
	AppSustainedPct float64 // whole-application percent of peak with co-scheduling
}

// Model evaluates the budget for one gauge configuration's workload.
func Model(cfg ModelConfig) (*ModelResult, error) {
	pm := perfmodel.New(cfg.M)
	pt, err := pm.Solve(cfg.Problem, cfg.GPUsPerJob)
	if err != nil {
		return nil, err
	}
	sites5D := float64(cfg.Problem.Sites5D())
	vol4 := sites5D / float64(cfg.Problem.Ls)

	// GPU time: 12 spin-color solves per propagator; the red-black solve
	// iterates on the half lattice.
	flopsPerSolve := float64(cfg.SolveIters) * sites5D / 2 * perfmodel.FlopsPerSite5D
	solveSec := flopsPerSolve / (pt.TFlops * 1e12)
	propSec := float64(cfg.PropsPerConfig) * 12 * solveSec

	// CPU time: contractions on the job's host cores.
	nodes := float64(cfg.GPUsPerJob) / float64(cfg.M.GPUsPerNode)
	cpuRate := nodes * cfg.CPUNodeTFlops * 1e12
	conFlops := float64(cfg.PropsPerConfig) * float64(cfg.ContractionsPerProp) *
		vol4 * cfg.ContractionFlopsPerSite
	conSec := conFlops / cpuRate

	// I/O: configuration + every propagator written and read once.
	cfgBytes := vol4 * 4 * 9 * 16
	propBytes := float64(cfg.PropsPerConfig) * vol4 * 144 * 16
	ioSec := 2 * (cfgBytes + propBytes) / (cfg.FSBandwidthGBs * 1e9)

	b := Budget{PropagatorSeconds: propSec, ContractionSeconds: conSec, IOSeconds: ioSec}
	// With co-scheduling, the application sustains the solver rate for
	// the whole propagator phase; only I/O dilutes it.
	amort := b.Amortized()
	sustained := pt.TFlops * amort.PropagatorSeconds / amort.Total()
	nodesInt := cfg.GPUsPerJob / cfg.M.GPUsPerNode
	return &ModelResult{
		Budget:          b,
		JobTFlops:       pt.TFlops,
		SolveSeconds:    solveSec,
		AppSustainedPct: pm.SustainedPctPeak(sustained, nodesInt),
	}, nil
}
