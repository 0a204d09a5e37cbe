package mpijm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"femtoverse/internal/cluster"
	"femtoverse/internal/metaq"
)

func sierraLike(nodes int, seed int64) cluster.Config {
	return cluster.Config{
		Nodes: nodes, GPUsPerNode: 4, CPUSlotsPerNode: 40,
		JitterSigma: 0.05, Seed: seed,
	}
}

func propTasks(n int, base, spread float64, seed int64) []cluster.Task {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]cluster.Task, n)
	for i := range tasks {
		tasks[i] = cluster.Task{
			ID: i, Name: "prop", Kind: cluster.GPUTask,
			GPUs:    16,
			Seconds: base * (1 + spread*(2*rng.Float64()-1)),
			TFlops:  28,
		}
	}
	return tasks
}

func TestBlocksPreventFragmentation(t *testing.T) {
	// Under mpi_jm with block size = job size, no GPU task ever lands on
	// scattered nodes, even with a mixed workload that fragments METAQ.
	cfg := sierraLike(32, 1)
	rng := rand.New(rand.NewSource(2))
	var tasks []cluster.Task
	for i := 0; i < 48; i++ {
		gpus := 8
		if i%3 == 0 {
			gpus = 16
		}
		tasks = append(tasks, cluster.Task{
			ID: i, Kind: cluster.GPUTask, GPUs: gpus,
			Seconds: 500 * (1 + 0.5*rng.Float64()),
		})
	}
	rep, err := cluster.Run(cfg, tasks, New(Params{LumpNodes: 16, BlockNodes: 4}))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range rep.PerTask {
		if st.Scattered {
			t.Fatalf("task %d scattered across %v despite blocks", st.Task.ID, st.Nodes)
		}
	}
}

func TestCoSchedulingMakesContractionsFree(t *testing.T) {
	// The paper: contractions (3% of compute, CPU-only) co-scheduled on
	// the nodes running GPU solves have their cost "brought to zero".
	cfg := sierraLike(16, 3)
	gpuOnly := propTasks(16, 1000, 0.1, 4)

	var withCPU []cluster.Task
	withCPU = append(withCPU, gpuOnly...)
	for i := 0; i < 32; i++ {
		withCPU = append(withCPU, cluster.Task{
			ID: 1000 + i, Name: "contraction", Kind: cluster.CPUTask,
			CPUs: 8, Seconds: 300,
		})
	}

	co := New(Params{LumpNodes: 16, BlockNodes: 4, CoSchedule: true})
	repGPU, err := cluster.Run(cfg, gpuOnly, co)
	if err != nil {
		t.Fatal(err)
	}
	repBoth, err := cluster.Run(cfg, withCPU, co)
	if err != nil {
		t.Fatal(err)
	}
	// Adding the whole contraction workload must cost (nearly) nothing.
	if repBoth.Makespan > repGPU.Makespan*1.02 {
		t.Fatalf("co-scheduled contractions extended makespan %.0f -> %.0f",
			repGPU.Makespan, repBoth.Makespan)
	}

	// Under METAQ the same workload steals nodes from solves.
	repMQ, err := cluster.Run(cfg, withCPU, metaq.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if repMQ.Makespan <= repBoth.Makespan {
		t.Fatalf("METAQ (%.0f) should pay for CPU tasks that mpi_jm (%.0f) amortizes",
			repMQ.Makespan, repBoth.Makespan)
	}
}

func TestStartup4224NodesInThreeToFiveMinutes(t *testing.T) {
	for _, lump := range []int{32, 128} {
		s := LumpStartupSeconds(4224, lump)
		if s < 2*60 || s > 5*60 {
			t.Fatalf("lump=%d: startup %v s outside the paper's 3-5 minute window", lump, s)
		}
	}
	if ConnectSeconds() >= 60 {
		t.Fatal("lump connection should take under a minute")
	}
	// And it beats the monolithic launch at scale.
	if adv := cluster.MonolithicStartupSeconds(4224) / LumpStartupSeconds(4224, 128); adv <= 1.5 {
		t.Fatalf("no startup advantage at 4224 nodes: %v", adv)
	}
}

func TestMVAPICHPenaltyLowersSustainedRate(t *testing.T) {
	cfg := sierraLike(16, 5)
	tasks := propTasks(16, 1000, 0.05, 6)
	tuned, err := cluster.Run(cfg, tasks, New(Params{LumpNodes: 16, BlockNodes: 4, SolveEfficiency: 1.0}))
	if err != nil {
		t.Fatal(err)
	}
	mvapich, err := cluster.Run(cfg, tasks, New(Params{LumpNodes: 16, BlockNodes: 4, SolveEfficiency: 0.75}))
	if err != nil {
		t.Fatal(err)
	}
	ratio := (mvapich.Makespan - mvapich.StartupSeconds) / (tuned.Makespan - tuned.StartupSeconds)
	if ratio < 1.2 || ratio > 1.5 {
		t.Fatalf("MVAPICH2 slowdown ratio %.2f, want ~1.33", ratio)
	}
}

func TestFailedLumpsReduceCapacityButWorkCompletes(t *testing.T) {
	cfg := sierraLike(32, 7)
	tasks := propTasks(24, 500, 0.1, 8)
	ok, err := cluster.Run(cfg, tasks, New(Params{LumpNodes: 8, BlockNodes: 4}))
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := cluster.Run(cfg, tasks, New(Params{LumpNodes: 8, BlockNodes: 4, FailedLumps: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if degraded.TasksDone != len(tasks) {
		t.Fatal("failed lump lost tasks")
	}
	if degraded.Makespan <= ok.Makespan {
		t.Fatal("losing a lump should lengthen the campaign")
	}
}

func TestLargeJobsSpanWholeBlocks(t *testing.T) {
	cfg := sierraLike(16, 9)
	// One 32-GPU (8-node) job with 4-node blocks: needs two adjacent
	// fully-free blocks.
	tasks := []cluster.Task{{ID: 0, Kind: cluster.GPUTask, GPUs: 32, Seconds: 100}}
	rep, err := cluster.Run(cfg, tasks, New(Params{LumpNodes: 16, BlockNodes: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerTask[0].Nodes) != 8 || rep.PerTask[0].Scattered {
		t.Fatalf("large-job placement wrong: %v", rep.PerTask[0].Nodes)
	}
}

func TestSpawnOverheadFarBelowMpirun(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.SpawnOverhead >= 15 {
		t.Fatalf("spawn overhead %v should be far below METAQ's mpirun cost", p.SpawnOverhead)
	}
	if p.LumpNodes != 128 || p.BlockNodes != 4 || p.SolveEfficiency != 1 {
		t.Fatalf("defaults wrong: %+v", p)
	}
}

// TestRandomWorkloadsProperty drives random workloads through mpi_jm and
// METAQ with testing/quick: every task always completes, utilization
// stays physical, and mpi_jm never scatters a placement.
func TestRandomWorkloadsProperty(t *testing.T) {
	f := func(seed int64, nRaw, mixRaw uint8) bool {
		n := int(nRaw%40) + 5
		rng := rand.New(rand.NewSource(seed))
		var tasks []cluster.Task
		for i := 0; i < n; i++ {
			// The paper's discipline: block size is a multiple of the job
			// sizes (2- and 4-node jobs in 4-node blocks).
			gpus := 8
			if int(mixRaw+uint8(i))%3 == 1 {
				gpus = 16
			}
			tasks = append(tasks, cluster.Task{
				ID: i, Kind: cluster.GPUTask, GPUs: gpus,
				Seconds: 100 * (1 + rng.Float64()),
			})
		}
		cfg := cluster.Config{
			Nodes: 24, GPUsPerNode: 4, CPUSlotsPerNode: 40,
			JitterSigma: 0.04, Seed: seed,
		}
		for _, pol := range []cluster.Policy{
			New(Params{LumpNodes: 12, BlockNodes: 4}),
			metaq.Policy{},
		} {
			rep, err := cluster.Run(cfg, tasks, pol)
			if err != nil {
				return false
			}
			if rep.TasksDone != n {
				return false
			}
			if rep.GPUUtil < 0 || rep.GPUUtil > 1 {
				return false
			}
		}
		// mpi_jm specifically: no scattered placements.
		rep, err := cluster.Run(cfg, tasks, New(Params{LumpNodes: 12, BlockNodes: 4}))
		if err != nil {
			return false
		}
		for _, st := range rep.PerTask {
			if st.Scattered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRankRecoverySeconds derives the rank-loss recovery figure of the
// lump runtime - heartbeat detection plus the same DPM connect window as
// lump startup - and pins it well under the monolithic-restart
// alternative and exactly at the price the simulator books per
// NetPartition.
func TestRankRecoverySeconds(t *testing.T) {
	// The window the wire coordinator waits before converting a rank's
	// silence into a declared death (missed-beat budget times the beat
	// interval, internal/wire defaults).
	const heartbeatDetectSeconds = 5.0
	got := heartbeatDetectSeconds + ConnectSeconds()
	if got <= ConnectSeconds() {
		t.Fatalf("recovery %vs must exceed the bare connect window %vs", got, ConnectSeconds())
	}
	if got > 60 {
		t.Fatalf("recovery %vs exceeds a minute; rank respawn should not cost a startup", got)
	}
	if got != cluster.PartitionRecoverySeconds {
		t.Fatalf("modelled recovery %vs != simulator's partition price %vs", got, cluster.PartitionRecoverySeconds)
	}
}

func TestCoScheduleNeverDoubleBooksHostCores(t *testing.T) {
	// Regression: a dispatch round that first promises both CPU slots of
	// a whole-free node to contractions and then hands the same node to a
	// GPU solve used to double-book the host core. The shape needs a
	// solve completion that releases a fan of contractions while another
	// solve is pending and exactly one whole node is free.
	cfg := cluster.Config{Nodes: 2, GPUsPerNode: 1, CPUSlotsPerNode: 2, Seed: 1}
	tasks := []cluster.Task{
		{ID: 0, Name: "solve-a", Kind: cluster.GPUTask, GPUs: 1, Seconds: 10},
		{ID: 1, Name: "c1", Kind: cluster.CPUTask, CPUs: 1, Seconds: 5, DependsOn: []int{0}},
		{ID: 2, Name: "c2", Kind: cluster.CPUTask, CPUs: 1, Seconds: 5, DependsOn: []int{0}},
		{ID: 3, Name: "c3", Kind: cluster.CPUTask, CPUs: 1, Seconds: 5, DependsOn: []int{0}},
		{ID: 4, Name: "c4", Kind: cluster.CPUTask, CPUs: 1, Seconds: 5, DependsOn: []int{0}},
		{ID: 5, Name: "solve-b", Kind: cluster.GPUTask, GPUs: 1, Seconds: 30},
		{ID: 6, Name: "solve-c", Kind: cluster.GPUTask, GPUs: 1, Seconds: 10, DependsOn: []int{0}},
	}
	rep, err := cluster.Run(cfg, tasks, New(Params{LumpNodes: 2, BlockNodes: 2, CoSchedule: true}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksDone != len(tasks) {
		t.Fatalf("finished %d of %d tasks", rep.TasksDone, len(tasks))
	}
}
