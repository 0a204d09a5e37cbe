// Command jmsim compares job-management strategies on a simulated
// GPU-dense allocation: naive bundling, METAQ-style backfilling, and the
// paper's mpi_jm with blocks and CPU/GPU co-scheduling. It prints
// makespan, utilization, idle fraction and fragmentation for a workload
// of propagator solves and contraction tasks.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"femtoverse/internal/cluster"
	"femtoverse/internal/metaq"
	"femtoverse/internal/mpijm"
	"femtoverse/internal/validate"
)

func main() {
	var out, errs strings.Builder
	code := run(os.Args[1:], &out, &errs)
	fmt.Print(out.String())
	fmt.Fprint(os.Stderr, errs.String())
	os.Exit(code)
}

// simFlags are the flag values the workload and the allocation are built
// from.
type simFlags struct {
	nodes, gpus, nGPU, nCPU, jobGPUs int
	duration, spread                 float64
}

// validate applies the flag contract, reporting every violation: a solve
// occupies whole nodes of the allocation, and every task must have a
// positive duration.
func (f simFlags) validate() error {
	return validate.All(
		validate.PositiveInt("-nodes", f.nodes),
		validate.PositiveInt("-gpus", f.gpus),
		validate.PositiveInt("-solves", f.nGPU),
		validate.NonNegativeInt("-contractions", f.nCPU),
		validate.PositiveInt("-jobgpus", f.jobGPUs),
		validate.MultipleOf("-jobgpus", f.jobGPUs, "-gpus", f.gpus),
		validate.AtMost("-jobgpus", f.jobGPUs, "-nodes x -gpus", f.nodes*f.gpus),
		validate.PositiveFloat("-seconds", f.duration),
		validate.UnitRate("-spread", f.spread),
	)
}

// run is the command on args, writing the table to stdout and diagnostics
// to stderr; it returns the exit code: 2 for flags it refuses, 1 for a
// simulation that fails.
func run(args []string, stdout, stderr *strings.Builder) int {
	fl := flag.NewFlagSet("jmsim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		nodes    = fl.Int("nodes", 64, "allocation size in nodes")
		gpus     = fl.Int("gpus", 4, "GPUs per node")
		nGPU     = fl.Int("solves", 72, "GPU propagator tasks")
		nCPU     = fl.Int("contractions", 36, "CPU contraction tasks")
		jobGPUs  = fl.Int("jobgpus", 16, "GPUs per solve (a multiple of -gpus)")
		duration = fl.Float64("seconds", 2000, "nominal task duration")
		spread   = fl.Float64("spread", 0.3, "fractional duration spread, in [0, 1]")
		seed     = fl.Int64("seed", 4, "workload seed")
		timeline = fl.Bool("timeline", false, "print an ASCII Gantt chart per policy")
	)
	if err := fl.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if err := (simFlags{
		nodes: *nodes, gpus: *gpus, nGPU: *nGPU, nCPU: *nCPU, jobGPUs: *jobGPUs,
		duration: *duration, spread: *spread,
	}).validate(); err != nil {
		fmt.Fprintf(stderr, "jmsim: invalid flags:\n%v\n", err)
		return 2
	}

	cfg := cluster.Config{
		Nodes: *nodes, GPUsPerNode: *gpus, CPUSlotsPerNode: 40,
		JitterSigma: 0.05, Seed: *seed,
	}
	rng := rand.New(rand.NewSource(*seed + 1))
	var tasks []cluster.Task
	for i := 0; i < *nGPU; i++ {
		tasks = append(tasks, cluster.Task{
			ID: i, Name: "prop", Kind: cluster.GPUTask, GPUs: *jobGPUs,
			Seconds: *duration * (1 + *spread*(2*rng.Float64()-1)),
		})
	}
	for i := 0; i < *nCPU; i++ {
		tasks = append(tasks, cluster.Task{
			ID: 10000 + i, Name: "contraction", Kind: cluster.CPUTask, CPUs: 8,
			Seconds: *duration * 0.15,
		})
	}

	policies := []cluster.Policy{
		cluster.NaiveBundle{LaunchOverhead: 10},
		metaq.Policy{},
		mpijm.New(mpijm.Params{LumpNodes: 32, BlockNodes: *jobGPUs / *gpus, CoSchedule: true}),
	}
	fmt.Fprintf(stdout, "%-22s %12s %9s %8s %10s %10s\n",
		"policy", "makespan_s", "gpu_util", "idle", "scattered", "startup_s")
	var naiveWindow float64
	for i, p := range policies {
		rep, err := cluster.Run(cfg, tasks, p)
		if err != nil {
			fmt.Fprintf(stderr, "jmsim: %s: %v\n", p.Name(), err)
			return 1
		}
		window := rep.Makespan - rep.StartupSeconds
		if i == 0 {
			naiveWindow = window
		}
		scattered := 0
		for _, st := range rep.PerTask {
			if st.Scattered {
				scattered++
			}
		}
		fmt.Fprintf(stdout, "%-22s %12.0f %8.1f%% %7.1f%% %10d %10.0f   speedup x%.2f\n",
			rep.Policy, window, 100*rep.GPUUtil, 100*rep.IdleFraction(),
			scattered, rep.StartupSeconds, naiveWindow/window)
		if *timeline {
			fmt.Fprint(stdout, rep.Timeline(100))
		}
	}
	return 0
}
