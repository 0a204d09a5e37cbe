// Package workflow implements the application pipeline of the paper's
// Fig. 2: load a gluonic field configuration, solve the Dirac equation
// for many propagators (about 97% of execution time, on GPUs), write and
// re-read the propagators (I/O, about 0.5%), and tie them together in
// tensor contractions (about 3%, CPU-only). Two modes are provided:
//
//   - RunReal executes the entire pipeline for real on a laptop-scale
//     lattice - actual Mobius solves, actual hio round-trips, actual
//     epsilon-tensor contractions - and reports the measured time budget;
//   - Model evaluates the production-scale budget from the calibrated
//     performance model, reproducing the paper's 96.5 / 3 / 0.5 split and
//     the co-scheduling amortization that brings the CPU share to zero.
package workflow

import (
	"context"
	"fmt"
	"time"

	"femtoverse/internal/contract"
	"femtoverse/internal/core"
	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/hio"
	"femtoverse/internal/lattice"
	"femtoverse/internal/machine"
	"femtoverse/internal/perfmodel"
	"femtoverse/internal/prop"
	jobrt "femtoverse/internal/runtime"
	"femtoverse/internal/solver"
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

// RealConfig is the campaign spec: the same type the core campaigns take,
// so one spec drives either pipeline and both derive their cache keys
// from core.SpecKey.
type RealConfig = core.RealConfig

// DefaultRealConfig returns a laptop-scale pipeline configuration.
func DefaultRealConfig() RealConfig {
	return RealConfig{
		Dims:     [4]int{4, 4, 4, 8},
		Params:   dirac.MobiusParams{Ls: 6, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1},
		NConfigs: 2,
		Seed:     7,
		Tol:      1e-8,
		Prec:     solver.Single,
		Beta:     5.8, ThermSweeps: 10, GapSweeps: 2,
	}
}

// RealResult is the outcome of a real pipeline run.
type RealResult struct {
	Budget Budget
	// Per-configuration correlators from the real contractions.
	Pion   [][]float64
	Proton [][]float64
	// Solver statistics accumulated over all solves.
	Solves     int
	Iterations int
	Flops      int64
	// IOBytes is the total volume written+read through hio.
	IOBytes int
}

// cfgRun is one configuration's trip through the Fig. 2 pipeline. Each
// field is written by exactly one stage and read by the later ones, which
// run in order - inline, or as pool tasks sequenced by dependency edges;
// every configuration gets its own hio container, since the container is
// not safe for concurrent mutation.
type cfgRun struct {
	cfg RealConfig
	g   *lattice.Geometry
	k   int
	u   *gauge.Field

	file *hio.File
	grp  *hio.Group
	pr   *prop.Propagator

	budget  Budget
	ioBytes int
	solves  int
	iters   int
	flops   int64

	pion, proton []float64
}

// loadAndSolve is the solve-class stage: stage 1 (I/O) "loads the gluonic
// field" - writes the configuration into the container and reads it back,
// as production does from the parallel file system - and stage 2 (GPU in
// production, parallel kernels here) solves for the propagator.
func (r *cfgRun) loadAndSolve(ctx context.Context) error {
	r.u.FlipTimeBoundary()

	tIO := time.Now()
	r.file = hio.New()
	grp, err := r.file.Root().CreateGroup(fmt.Sprintf("cfg%04d", r.k))
	if err != nil {
		return err
	}
	r.grp = grp
	links := make([]complex128, 0, 4*r.g.Vol*9)
	for mu := 0; mu < lattice.NDim; mu++ {
		// One cancellation point per direction keeps the pack loop
		// interruptible without a branch per site.
		if err := ctx.Err(); err != nil {
			return err
		}
		for s := 0; s < r.g.Vol; s++ {
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					links = append(links, r.u.U[mu][s][i][j])
				}
			}
		}
	}
	if err := grp.WriteComplex128("links", []int{4, r.g.Vol, 3, 3}, links); err != nil {
		return err
	}
	if _, _, err := grp.ReadComplex128("links"); err != nil {
		return err
	}
	r.ioBytes += 2 * 16 * len(links)
	r.budget.IOSeconds += time.Since(tIO).Seconds()

	tProp := time.Now()
	m, err := dirac.NewMobius(r.u, r.cfg.Params)
	if err != nil {
		return err
	}
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		return err
	}
	qs := prop.NewQuarkSolver(eo, solver.Params{Tol: r.cfg.Tol, Precision: r.cfg.Prec})
	if r.pr, err = qs.ComputePointCtx(ctx, [4]int{0, 0, 0, 0}); err != nil {
		return err
	}
	r.budget.PropagatorSeconds += time.Since(tProp).Seconds()
	r.solves = qs.Solves
	r.iters = qs.TotalIterations
	r.flops = qs.TotalFlops
	return nil
}

// propIO is stage 3 (I/O): write the propagator, read it back.
func (r *cfgRun) propIO(ctx context.Context) error {
	tIO := time.Now()
	pgrp, err := r.grp.CreateGroup("prop")
	if err != nil {
		return err
	}
	for j := 0; j < prop.NComp; j++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		name := fmt.Sprintf("col%02d", j)
		if err := pgrp.WriteComplex128(name, []int{r.g.Vol, dirac.SpinorLen}, r.pr.Col[j]); err != nil {
			return err
		}
		if _, _, err := pgrp.ReadComplex128(name); err != nil {
			return err
		}
		r.ioBytes += 2 * 16 * len(r.pr.Col[j])
	}
	r.budget.IOSeconds += time.Since(tIO).Seconds()
	return nil
}

// contractAndWrite is stage 4 (CPU), the contractions, and stage 5 (I/O),
// writing their results.
func (r *cfgRun) contractAndWrite(context.Context) error {
	tCon := time.Now()
	r.pion = contract.Pion2pt(r.pr, 0)
	r.proton = contract.Real(contract.Proton2pt(r.pr, r.pr, 0))
	r.budget.ContractionSeconds += time.Since(tCon).Seconds()

	tIO := time.Now()
	if err := r.grp.WriteFloat64("pion", []int{len(r.pion)}, r.pion); err != nil {
		return err
	}
	if err := r.grp.WriteFloat64("proton", []int{len(r.proton)}, r.proton); err != nil {
		return err
	}
	r.ioBytes += 8 * (len(r.pion) + len(r.proton))
	r.budget.IOSeconds += time.Since(tIO).Seconds()
	r.pr = nil // propagators are large; release promptly
	return nil
}

// stages is the Fig. 2 pipeline of one configuration as the job runtime
// sees it: the worker class and planning cost of each stage.
var stages = [...]struct {
	name  string
	class jobrt.Class
	cost  float64
	run   func(*cfgRun, context.Context) error
}{
	{"solve", jobrt.Solve, 1, (*cfgRun).loadAndSolve},
	{"io", jobrt.Contract, 0.02, (*cfgRun).propIO},
	{"contract", jobrt.Contract, 0.05, (*cfgRun).contractAndWrite},
}

// RunReal executes the Fig. 2 pipeline on real solves. workers == 0 runs
// the three stages of each configuration in order on the calling
// goroutine and returns a nil report. workers >= 1 runs them on the job
// runtime - the solve stage on the solve (GPU-analog) worker class, the
// I/O and contraction stages as dependent tasks on the contraction
// (CPU-analog) class: the paper's co-scheduling, for real - and returns
// its utilization report. Correlators and accounting are bit-for-bit
// identical at any worker count; the measured Budget differs only by
// timing noise.
func RunReal(ctx context.Context, cfg RealConfig, workers int) (*RealResult, *jobrt.Report, error) {
	g, err := lattice.New(cfg.Dims)
	if err != nil {
		return nil, nil, err
	}
	configs := gauge.Ensemble(g, cfg.Seed, cfg.Beta, cfg.NConfigs, cfg.ThermSweeps, cfg.GapSweeps)
	// The pipeline is built once as tasks - per configuration, the three
	// stages chained by dependency edges - and workers only decides who
	// executes them.
	runs := make([]cfgRun, len(configs))
	tasks := make([]jobrt.Task, 0, len(stages)*len(configs))
	for k, u := range configs {
		r := &runs[k]
		*r = cfgRun{cfg: cfg, g: g, k: k, u: u}
		for s, st := range stages {
			t := jobrt.Task{
				ID:    len(stages)*k + s,
				Name:  fmt.Sprintf("%s cfg%04d", st.name, k),
				Class: st.class,
				Cost:  st.cost,
				Run:   func(tctx context.Context) (interface{}, error) { return nil, st.run(r, tctx) },
			}
			if s > 0 {
				t.DependsOn = []int{t.ID - 1}
			}
			tasks = append(tasks, t)
		}
	}

	var rep *jobrt.Report
	if workers == 0 {
		// ID order satisfies every dependency edge.
		for _, t := range tasks {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			if _, err := t.Run(ctx); err != nil {
				return nil, nil, err
			}
		}
	} else {
		_, report, err := jobrt.Run(ctx, jobrt.Config{SolveWorkers: workers}, tasks)
		if err != nil {
			return nil, &report, err
		}
		rep = &report
	}

	// Aggregate in configuration order so the floating-point budget sums
	// are independent of task completion order.
	res := &RealResult{}
	for k := range runs {
		r := &runs[k]
		res.Budget.PropagatorSeconds += r.budget.PropagatorSeconds
		res.Budget.ContractionSeconds += r.budget.ContractionSeconds
		res.Budget.IOSeconds += r.budget.IOSeconds
		res.IOBytes += r.ioBytes
		res.Solves += r.solves
		res.Iterations += r.iters
		res.Flops += r.flops
		res.Pion = append(res.Pion, r.pion)
		res.Proton = append(res.Proton, r.proton)
	}
	return res, rep, nil
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
