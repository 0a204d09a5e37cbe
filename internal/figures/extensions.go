package figures

import (
	"fmt"
	"math/rand"
	"strings"

	"femtoverse/internal/cluster"
	"femtoverse/internal/fault"
	"femtoverse/internal/machine"
	"femtoverse/internal/mpijm"
	"femtoverse/internal/perfmodel"
)

func init() {
	register("resilience", genResilience)
	register("gdr", genGDR)
	register("pipeline", genPipeline)
}

// Resilience quantifies the paper's lump-size trade-off: MPI_Abort in any
// spawned job brings down its whole lump, so larger lumps amplify every
// task failure into more lost work - the reason the paper "used
// relatively small lump sizes on new systems that may be suffering from
// pre-acceptance issues".
type Resilience struct {
	Rows []ResilienceRow
}

// ResilienceRow is one lump-size measurement.
type ResilienceRow struct {
	LumpNodes int
	Failures  int
	WastedPct float64 // wasted GPU-seconds / useful GPU-seconds
	MakespanS float64
}

// Name implements Result.
func (Resilience) Name() string { return "resilience" }

// Title implements Result.
func (Resilience) Title() string {
	return "Lump size vs failure blast radius (MPI_Abort brings the lump down)"
}

// Render implements Result.
func (r Resilience) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# lump_nodes  failures  wasted_pct  makespan_s\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%11d  %8d  %9.1f%%  %10.0f\n",
			row.LumpNodes, row.Failures, row.WastedPct, row.MakespanS)
	}
	fmt.Fprintf(&b, "# paper: failures take down the whole lump; small lumps bound the damage\n")
	return b.String()
}

func genResilience(quick bool) (Result, error) {
	nTasks := 96
	if quick {
		nTasks = 48
	}
	rng := rand.New(rand.NewSource(11))
	var tasks []cluster.Task
	for i := 0; i < nTasks; i++ {
		tasks = append(tasks, cluster.Task{
			ID: i, Name: "prop", Kind: cluster.GPUTask, GPUs: 16,
			Seconds: 1500 * (1 + 0.2*(2*rng.Float64()-1)),
		})
	}
	var out Resilience
	for _, lump := range []int{8, 32, 128} {
		cfg := cluster.Config{
			Nodes: 128, GPUsPerNode: 4, CPUSlotsPerNode: 40,
			JitterSigma: 0.03, Seed: 13,
			Fault: fault.Plan{DomainLoss: 0.04}, MaxRetries: 100,
		}
		pol := mpijm.New(mpijm.Params{LumpNodes: lump, BlockNodes: 4})
		rep, err := cluster.Run(cfg, tasks, pol)
		if err != nil {
			return nil, err
		}
		useful := rep.GPUBusy - rep.WastedGPUSeconds
		out.Rows = append(out.Rows, ResilienceRow{
			LumpNodes: lump,
			Failures:  rep.Failures,
			WastedPct: 100 * rep.WastedGPUSeconds / useful,
			MakespanS: rep.Makespan - rep.StartupSeconds,
		})
	}
	return out, nil
}

// GDR is the GPUDirect-RDMA ablation: the paper notes Sierra and Summit
// did not support it at submission time, "limiting our multi-node
// capability and scaling". This experiment re-runs the Fig. 3 Sierra
// strong scaling with GDR hypothetically enabled.
type GDR struct {
	Without []perfmodel.Point
	With    []perfmodel.Point
}

// Name implements Result.
func (GDR) Name() string { return "gdr" }

// Title implements Result.
func (GDR) Title() string {
	return "GPUDirect RDMA ablation on Sierra strong scaling (48^3 x 64)"
}

// Render implements Result.
func (g GDR) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# GPUs   no-GDR_TFlops  policy            GDR_TFlops  policy           gain\n")
	for i := range g.Without {
		wo, wi := g.Without[i], g.With[i]
		fmt.Fprintf(&b, "%6d  %11.1f  %-18s %9.1f  %-18s %5.1f%%\n",
			wo.GPUs, wo.TFlops, wo.Choice.String(), wi.TFlops, wi.Choice.String(),
			100*(wi.TFlops/wo.TFlops-1))
	}
	fmt.Fprintf(&b, "# paper: missing GDR support 'limited our multi-node capability and scaling'\n")
	return b.String()
}

func genGDR(bool) (Result, error) {
	problem := perfmodel.Problem{Global: [4]int{48, 48, 48, 64}, Ls: 20}
	counts := []int{4, 16, 64, 128, 256}
	without := perfmodel.New(machine.Sierra()).StrongScaling(problem, counts)
	hypo := machine.Sierra()
	hypo.GPUDirectRDMA = true
	with := perfmodel.New(hypo).StrongScaling(problem, counts)
	if len(without) != len(with) || len(without) == 0 {
		return nil, fmt.Errorf("figures: GDR sweep mismatch")
	}
	return GDR{Without: without, With: with}, nil
}

// Pipeline runs the Fig. 2 workflow as a *scheduled campaign with real
// dependencies*: every contraction depends on the propagators it
// consumes, and mpi_jm's co-scheduling hides the dependent CPU work under
// the remaining GPU solves.
type Pipeline struct {
	CoScheduled cluster.Report
	Exclusive   cluster.Report
}

// Name implements Result.
func (Pipeline) Name() string { return "pipeline" }

// Title implements Result.
func (Pipeline) Title() string {
	return "Dependency-aware campaign: contractions gated on their propagators"
}

// Render implements Result.
func (p Pipeline) Render() string {
	var b strings.Builder
	w := func(r cluster.Report) float64 { return r.Makespan - r.StartupSeconds }
	fmt.Fprintf(&b, "co-scheduled : makespan %7.0f s  gpu-util %5.1f%%\n", w(p.CoScheduled), 100*p.CoScheduled.GPUUtil)
	fmt.Fprintf(&b, "exclusive    : makespan %7.0f s  gpu-util %5.1f%%\n", w(p.Exclusive), 100*p.Exclusive.GPUUtil)
	fmt.Fprintf(&b, "co-scheduling saves %.1f%% wall clock with dependencies honoured\n",
		100*(1-w(p.CoScheduled)/w(p.Exclusive)))
	return b.String()
}

func genPipeline(quick bool) (Result, error) {
	nProps := 48
	if quick {
		nProps = 24
	}
	rng := rand.New(rand.NewSource(17))
	var tasks []cluster.Task
	for i := 0; i < nProps; i++ {
		tasks = append(tasks, cluster.Task{
			ID: i, Name: "prop", Kind: cluster.GPUTask, GPUs: 16,
			Seconds: 1800 * (1 + 0.2*(2*rng.Float64()-1)),
		})
	}
	// Three contractions per pair of consecutive propagators (different
	// operators/momenta), a realistically CPU-heavy analysis load.
	for i := 0; i+1 < nProps; i++ {
		for k := 0; k < 3; k++ {
			tasks = append(tasks, cluster.Task{
				ID: 10000 + 3*i + k, Name: "contraction", Kind: cluster.CPUTask, CPUs: 8,
				Seconds:   600,
				DependsOn: []int{i, i + 1},
			})
		}
	}
	cfg := cluster.Config{
		Nodes: 32, GPUsPerNode: 4, CPUSlotsPerNode: 40,
		JitterSigma: 0.03, Seed: 19,
	}
	co, err := cluster.Run(cfg, tasks, mpijm.New(mpijm.Params{LumpNodes: 32, BlockNodes: 4, CoSchedule: true}))
	if err != nil {
		return nil, err
	}
	ex, err := cluster.Run(cfg, tasks, mpijm.New(mpijm.Params{LumpNodes: 32, BlockNodes: 4, CoSchedule: false}))
	if err != nil {
		return nil, err
	}
	return Pipeline{CoScheduled: co, Exclusive: ex}, nil
}
