// Package mpijm implements the paper's mpi_jm job manager as a scheduling
// policy for the cluster simulator. mpi_jm starts as parallel mpirun
// launches of single-node managers over "lumps" of nodes (32-128), the
// first lump hosting the scheduler to which the rest connect via MPI
// dynamic process management; lumps are subdivided into "blocks" sized to
// a multiple of the largest job, whose boundaries prevent fragmentation
// and keep high-bandwidth communication local; tasks are spawned with
// MPI_Comm_spawn_multiple (no per-task mpirun); and because the scheduler
// holds a detailed per-node resource map, CPU-only tasks are safely
// overlaid on the idle cores of GPU-busy nodes, making the contraction
// workload effectively free.
package mpijm

import (
	"fmt"

	"femtoverse/internal/cluster"
)

// Params configures the job manager.
type Params struct {
	// LumpNodes is the size of each manager launch group (paper: 32-128).
	LumpNodes int
	// BlockNodes is the fragmentation-prevention granularity, a multiple
	// of the largest job size (paper: 4 or 8 while lumps are 64-128).
	BlockNodes int
	// SpawnOverhead is the per-task MPI_Comm_spawn_multiple cost in
	// seconds; far below a fresh mpirun. Default 1.
	SpawnOverhead float64
	// SolveEfficiency multiplies every GPU task's speed: 1.0 for tuned
	// MPI stacks, ~0.75 for the not-yet-tuned MVAPICH2 the paper needed
	// for dynamic process management (its 15% vs the anticipated 20%).
	SolveEfficiency float64
	// CoSchedule enables overlaying CPU tasks on GPU-busy nodes.
	CoSchedule bool
	// FailedLumps counts lumps that failed to start (bad node or file
	// system problems) and are simply ignored, as the paper describes;
	// their nodes are unavailable.
	FailedLumps int
}

// WithDefaults fills zero fields with the production defaults.
func (p Params) WithDefaults() Params {
	if p.LumpNodes <= 0 {
		p.LumpNodes = 128
	}
	if p.BlockNodes <= 0 {
		p.BlockNodes = 4
	}
	if p.SpawnOverhead <= 0 {
		p.SpawnOverhead = 1
	}
	if p.SolveEfficiency <= 0 || p.SolveEfficiency > 1 {
		p.SolveEfficiency = 1
	}
	return p
}

// Policy is the mpi_jm scheduling policy.
type Policy struct {
	P Params
}

// New returns a policy with defaulted parameters.
func New(p Params) *Policy { return &Policy{P: p.WithDefaults()} }

// Name implements cluster.Policy.
func (j *Policy) Name() string {
	return fmt.Sprintf("mpi_jm(lump=%d,block=%d)", j.P.LumpNodes, j.P.BlockNodes)
}

// Startup implements cluster.Policy with the lump-parallel launch model.
func (j *Policy) Startup(cfg cluster.Config) float64 {
	return LumpStartupSeconds(cfg.Nodes, j.P.LumpNodes)
}

// unavailable reports whether a node belongs to a failed lump (failed
// lumps are the trailing ones, a deterministic convention adequate for
// capacity accounting).
func (j *Policy) unavailable(cfg cluster.Config, node int) bool {
	if j.P.FailedLumps <= 0 {
		return false
	}
	lumps := (cfg.Nodes + j.P.LumpNodes - 1) / j.P.LumpNodes
	lump := node / j.P.LumpNodes
	return lump >= lumps-j.P.FailedLumps
}

// Dispatch implements cluster.Policy.
func (j *Policy) Dispatch(s *cluster.Sim) []cluster.Start {
	cfg := s.Config()
	var starts []cluster.Start

	// Free whole nodes, grouped by block so placements never straddle a
	// block boundary (this is what prevents fragmentation). Blocks are
	// indexed densely, so a slice keeps dispatch deterministic.
	nBlocks := (cfg.Nodes + j.P.BlockNodes - 1) / j.P.BlockNodes
	freeByBlock := make([][]int, nBlocks)
	for _, n := range s.FreeWholeNodes() {
		if j.unavailable(cfg, n) {
			continue
		}
		// A solve needs one host core per GPU alongside the GPUs
		// themselves; a node whose CPU slots are all held by running
		// contractions cannot take one, however free its GPUs are.
		if s.NodeCPUsFree(n) < cfg.GPUsPerNode {
			continue
		}
		b := n / j.P.BlockNodes
		freeByBlock[b] = append(freeByBlock[b], n)
	}
	// takeFromBlock prefers a contiguous run inside a block (blocks are
	// sized as a multiple of the job sizes, so runs normally exist); if
	// holes from oddly-sized jobs prevent that, any in-block nodes still
	// satisfy mpi_jm's locality guarantee - the block is the locality
	// domain.
	takeFromBlock := func(need int) []int {
		for b := range freeByBlock {
			free := freeByBlock[b]
			if len(free) < need {
				continue
			}
			// Look for a contiguous run of length need.
			for lo := 0; lo+need <= len(free); lo++ {
				if free[lo+need-1]-free[lo] == need-1 {
					nodes := append([]int(nil), free[lo:lo+need]...)
					freeByBlock[b] = append(free[:lo:lo], free[lo+need:]...)
					return nodes
				}
			}
			// Fall back to the first free nodes of the block.
			nodes := free[:need]
			freeByBlock[b] = free[need:]
			return nodes
		}
		return nil
	}
	// cpuReserved tracks CPU slots promised to earlier starts in this
	// dispatch round, so co-scheduled tasks never oversubscribe a node.
	cpuReserved := map[int]int{}

	for _, id := range s.PendingIDs() {
		t, _ := s.PendingTask(id)
		if !s.Admits(t, j.P.SpawnOverhead) {
			// Admission control: don't start what you can't finish. The
			// task is left pending; if the allocation ends first it is
			// reported refused, never stranded mid-flight.
			continue
		}
		switch t.Kind {
		case cluster.GPUTask:
			per := cfg.GPUsPerNode
			need := (t.GPUs + per - 1) / per
			if need > j.P.BlockNodes {
				// Large jobs span whole blocks: assemble adjacent full
				// blocks.
				if nodes := j.adjacentBlocks(freeByBlock, need); nodes != nil {
					starts = append(starts, j.startGPU(id, nodes))
					for _, n := range nodes {
						cpuReserved[n] += per // host cores of the solve
					}
				}
				continue
			}
			if nodes := takeFromBlock(need); nodes != nil {
				starts = append(starts, j.startGPU(id, nodes))
				for _, n := range nodes {
					cpuReserved[n] += per
				}
			}
		case cluster.CPUTask:
			if !j.P.CoSchedule {
				// Without co-scheduling behave like METAQ: need an idle
				// node from some block.
				if nodes := takeFromBlock(1); nodes != nil {
					starts = append(starts, cluster.Start{
						TaskID: id, Nodes: nodes, SpeedPenalty: 1,
						Overhead: j.P.SpawnOverhead, Exclusive: true,
					})
				}
				continue
			}
			// Co-scheduling: the resource map finds free CPU slots on any
			// node, including ones whose GPUs are busy with solves.
			for n := 0; n < cfg.Nodes; n++ {
				if j.unavailable(cfg, n) {
					continue
				}
				if s.NodeCPUsFree(n)-cpuReserved[n] >= t.CPUs {
					starts = append(starts, cluster.Start{
						TaskID: id, Nodes: []int{n}, SpeedPenalty: 1,
						Overhead: j.P.SpawnOverhead,
					})
					cpuReserved[n] += t.CPUs
					// A GPU placement on this node would need one host
					// core per GPU; once the contractions promised in
					// this round leave fewer than that, the node is no
					// longer whole for takeFromBlock/adjacentBlocks.
					if s.NodeCPUsFree(n)-cpuReserved[n] < cfg.GPUsPerNode {
						b := n / j.P.BlockNodes
						for i, fn := range freeByBlock[b] {
							if fn == n {
								freeByBlock[b] = append(freeByBlock[b][:i:i], freeByBlock[b][i+1:]...)
								break
							}
						}
					}
					break
				}
			}
		}
	}
	return starts
}

func (j *Policy) startGPU(id int, nodes []int) cluster.Start {
	return cluster.Start{
		TaskID:       id,
		Nodes:        append([]int(nil), nodes...),
		SpeedPenalty: j.P.SolveEfficiency,
		Overhead:     j.P.SpawnOverhead,
	}
}

// adjacentBlocks gathers `need` free nodes from consecutive fully-free
// blocks, for jobs larger than one block.
func (j *Policy) adjacentBlocks(freeByBlock [][]int, need int) []int {
	blocksNeeded := (need + j.P.BlockNodes - 1) / j.P.BlockNodes
	run := 0
	for b := range freeByBlock {
		if len(freeByBlock[b]) == j.P.BlockNodes {
			run++
			if run == blocksNeeded {
				var nodes []int
				for bb := b - blocksNeeded + 1; bb <= b; bb++ {
					nodes = append(nodes, freeByBlock[bb]...)
					freeByBlock[bb] = nil
				}
				return nodes[:need]
			}
		} else {
			run = 0
		}
	}
	return nil
}

// DomainOf implements cluster.FailureDomain: a task's blast radius is its
// lump. The paper found that an MPI_Abort in a spawned job - even after
// disconnecting its intercommunicator - "still brings the entire lump
// down (in violation of the MPI standard), but fortunately not the entire
// system", which is why production runs used relatively small lumps on
// the new machines.
func (j *Policy) DomainOf(cfg cluster.Config, nodes []int) int {
	if len(nodes) == 0 {
		return -1
	}
	return nodes[0] / j.P.LumpNodes
}

// LumpStartupSeconds models the partitioned startup: every lump's mpirun
// runs in parallel (bounded node count, no non-linear blowup), lumps
// connect to the scheduler via DPM in under a minute, and work
// distribution begins. The paper measured 3-5 minutes to bring 4224
// Sierra nodes to useful work.
func LumpStartupSeconds(nodes, lumpNodes int) float64 {
	if nodes < 1 {
		return 0
	}
	if lumpNodes < 1 {
		lumpNodes = 128
	}
	if lumpNodes > nodes {
		lumpNodes = nodes
	}
	perLump := 30 + 0.8*float64(lumpNodes) // parallel mpirun per lump
	connect := 40.0                        // DPM connection of all lumps
	distribute := 60.0                     // scheduler begins placing work
	return perLump + connect + distribute
}

// ConnectSeconds is the lump-connection component alone (the paper: "In
// less than one minute, all lumps were connected").
func ConnectSeconds() float64 { return 40 }
