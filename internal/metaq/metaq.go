// Package metaq implements a METAQ-style backfilling bundler [Berkowitz,
// METAQ: Bundle Supercomputing Tasks; EPJ Web Conf. 175, 09007]: a thin
// middle layer between the batch scheduler and the user's job scripts
// that starts any pending task as soon as enough nodes are free,
// recovering the idle time naive bundling wastes. Being a set of shell
// scripts, it is hardware-agnostic: it cannot keep a task's nodes close
// together (scattered placements run at a locality penalty as the
// allocation fragments), it pays a separate mpirun invocation per task,
// and it cannot safely overlay CPU work on GPU-busy nodes.
package metaq

import "femtoverse/internal/cluster"

// Policy is the METAQ scheduling policy.
type Policy struct {
	// LaunchOverhead is the per-task mpirun cost in seconds (the paper
	// notes separate invocations "can become taxing on the service
	// nodes"). Default 15.
	LaunchOverhead float64
}

// scatterPenalty is the speed factor of a task placed on non-contiguous
// nodes.
const scatterPenalty = 0.92

// Name implements cluster.Policy.
func (Policy) Name() string { return "metaq" }

// Startup implements cluster.Policy: the batch allocation itself is
// already running; METAQ begins dispatching immediately.
func (Policy) Startup(cluster.Config) float64 { return 0 }

func (p Policy) overhead() float64 {
	if p.LaunchOverhead > 0 {
		return p.LaunchOverhead
	}
	return 15
}

// Dispatch implements cluster.Policy: walk the queue in order and start
// every task that fits anywhere (backfilling); GPU tasks take the
// lowest-numbered free whole nodes, wherever they are.
func (p Policy) Dispatch(s *cluster.Sim) []cluster.Start {
	free := s.FreeWholeNodes()
	var starts []cluster.Start
	for _, id := range s.PendingIDs() {
		t, _ := s.PendingTask(id)
		if !s.Admits(t, p.overhead()) {
			// METAQ's own rule: a task is only launched if it fits in the
			// remaining allocation, so the batch job ends clean instead of
			// killing work mid-flight.
			continue
		}
		switch t.Kind {
		case cluster.GPUTask:
			per := s.Config().GPUsPerNode
			need := (t.GPUs + per - 1) / per
			if need > len(free) {
				continue // backfill: later, smaller tasks may still fit
			}
			nodes := free[:need]
			free = free[need:]
			penalty := 1.0
			if !isContiguous(nodes) {
				penalty = scatterPenalty
			}
			starts = append(starts, cluster.Start{
				TaskID:       id,
				Nodes:        nodes,
				SpeedPenalty: penalty,
				Overhead:     p.overhead(),
			})
		case cluster.CPUTask:
			// METAQ cannot overlay executables: CPU tasks consume an
			// idle node exclusively.
			if len(free) == 0 {
				continue
			}
			starts = append(starts, cluster.Start{
				TaskID:       id,
				Nodes:        free[:1],
				SpeedPenalty: 1,
				Overhead:     p.overhead(),
				Exclusive:    true,
			})
			free = free[1:]
		}
	}
	return starts
}

func isContiguous(nodes []int) bool {
	for i := 1; i < len(nodes); i++ {
		if nodes[i] != nodes[i-1]+1 {
			return false
		}
	}
	return true
}
