// Package perfmodel predicts the sustained performance of the
// mixed-precision domain-wall CG solver on the paper's machines, from
// first principles plus the paper's own calibration constants:
//
//   - the solver is bandwidth-bound, with arithmetic intensity AI = 1.9
//     in 16-bit storage (Section VI), so raw flops = effective bandwidth
//     x AI;
//   - effective per-GPU bandwidth is memory bandwidth x a per-generation
//     cache amplification calibrated from Fig. 3c's best points
//     (139 / 516 / 975 GB/s on K20X / P100 / V100);
//   - percent of peak multiplies the raw rate by 1.675 (non-FMA
//     instructions and double-precision reductions) and divides by the
//     FP32 peak (Section VI);
//   - strong scaling degrades through halo traffic: surface-to-volume
//     growth, NIC sharing among the node's GPUs, per-message latency,
//     and the communication policy the model picks for the exchange.
//
// This reproduces the shapes of Figs. 3-6: who wins, by what factor, and
// where the strong-scaling rollover falls.
package perfmodel

import (
	"fmt"

	"femtoverse/internal/comms"
	"femtoverse/internal/lattice"
	"femtoverse/internal/machine"
)

// Paper-convention constants (Section VI).
const (
	// AI is the arithmetic intensity of the half-precision CG solver.
	AI = 1.9
	// PeakFactor converts raw solver flops to the peak-accounting rate
	// (non-FMA issue and double-precision reductions).
	PeakFactor = 1.675
	// FlopsPerSite5D is the per-iteration work per five-dimensional
	// lattice site in the community convention (paper: 10,000-12,000).
	FlopsPerSite5D = 11000.0
	// HaloBytesPerSite5D is the projected half-spinor halo payload in
	// 16-bit storage: 6 complex components x 2 reals x 2 bytes.
	HaloBytesPerSite5D = 24.0
)

// Problem describes one linear solve.
type Problem struct {
	Global [4]int // 4-D lattice extents
	Ls     int    // fifth dimension
}

// Sites5D returns the global five-dimensional site count.
func (p Problem) Sites5D() int {
	v := p.Ls
	for _, d := range p.Global {
		v *= d
	}
	return v
}

// Model predicts solver performance for one machine. It holds no state
// beyond the machine: every Solve picks its policy afresh, so a point does
// not depend on the points asked for before it.
type Model struct {
	M machine.Machine
}

// New builds a model of the machine.
func New(m machine.Machine) *Model {
	return &Model{M: m}
}

// Point is one strong-scaling measurement.
type Point struct {
	GPUs        int
	Nodes       int
	TFlops      float64 // aggregate raw solver rate
	PctPeak     float64 // paper-convention percent of FP32 peak
	BWPerGPU    float64 // sustained effective bandwidth per GPU, GB/s
	IterSeconds float64
	Choice      comms.Choice // communication policy the model picked
}

// intraInterSplit estimates how the halo bytes of a decomposition divide
// between NVLink (intra-node) and the NIC, assuming ranks are packed into
// nodes along the fastest-varying grid dimensions (the natural MPI
// Cartesian placement).
func intraInterSplit(d *lattice.Decomposition, gpusPerNode int) (intra, inter float64) {
	stride := 1
	for mu := 0; mu < lattice.NDim; mu++ {
		if !d.Partitioned(mu) {
			continue
		}
		faceBytes := float64(2*d.SurfaceSites4D(mu)*d.Ls) * HaloBytesPerSite5D
		// Neighbours in mu are stride ranks apart. If a whole period of
		// the dimension fits inside a node the traffic is intra-node; if
		// the stride alone exceeds the node, it is all inter-node;
		// otherwise the boundary cuts a fraction of the links.
		span := stride * d.Grid[mu]
		switch {
		case span <= gpusPerNode:
			intra += faceBytes
		case stride >= gpusPerNode:
			inter += faceBytes
		default:
			// gpusPerNode/span of the mu-links stay inside a node.
			f := float64(gpusPerNode) / float64(span)
			intra += f * faceBytes
			inter += (1 - f) * faceBytes
		}
		stride = span
	}
	return intra, inter
}

// Solve predicts the solver operating point for the problem on nGPUs.
func (m *Model) Solve(p Problem, nGPUs int) (Point, error) {
	d, err := lattice.BestGrid(p.Global, p.Ls, nGPUs)
	if err != nil {
		return Point{}, fmt.Errorf("perfmodel: %w", err)
	}
	gpn := m.M.GPUsPerNode
	nodes := (nGPUs + gpn - 1) / gpn
	gpusOnNode := gpn
	if nGPUs < gpn {
		gpusOnNode = nGPUs
	}

	// Compute time: bandwidth-bound streaming of the local 5-D volume.
	bytesPerIter := float64(d.LocalVolume5D()) * FlopsPerSite5D / AI
	bwEff := m.M.EffectiveBWPerGPUGB() * 1e9
	tComp := bytesPerIter / bwEff

	// Communication: halo bytes split between NVLink and the shared NIC.
	intra, inter := intraInterSplit(d, gpusOnNode)
	ex := comms.Exchange{
		InterBytes:     inter,
		IntraBytes:     intra,
		Dims:           d.PartitionedDims(),
		GPUsPerNIC:     gpusOnNode,
		Nodes:          nodes,
		ComputeSeconds: tComp,
	}
	choice, exposed := comms.Model{M: m.M}.Best(ex)

	tIter := tComp + exposed
	flopsPerGPU := float64(d.LocalVolume5D()) * FlopsPerSite5D
	rawPerGPU := flopsPerGPU / tIter

	return Point{
		GPUs:        nGPUs,
		Nodes:       nodes,
		TFlops:      rawPerGPU * float64(nGPUs) / 1e12,
		PctPeak:     100 * rawPerGPU * PeakFactor / (m.M.FP32PerGPUTF() * 1e12),
		BWPerGPU:    rawPerGPU / AI / 1e9,
		IterSeconds: tIter,
		Choice:      choice,
	}, nil
}

// StrongScaling sweeps GPU counts, skipping counts with no admissible
// decomposition.
func (m *Model) StrongScaling(p Problem, gpuCounts []int) []Point {
	var out []Point
	for _, n := range gpuCounts {
		pt, err := m.Solve(p, n)
		if err != nil {
			continue
		}
		out = append(out, pt)
	}
	return out
}

// JobPerformance returns the raw TFLOPS of one multi-GPU job at its
// operating point, the per-job building block of the weak-scaling
// figures (Figs. 5 and 6).
func (m *Model) JobPerformance(p Problem, gpusPerJob int) (float64, error) {
	pt, err := m.Solve(p, gpusPerJob)
	if err != nil {
		return 0, err
	}
	return pt.TFlops, nil
}

// SustainedPctPeak converts an aggregate raw TFLOPS on a node count to
// the paper's percent-of-peak accounting.
func (m *Model) SustainedPctPeak(rawTFlops float64, nodes int) float64 {
	peak := m.M.FP32PerNodeTF * float64(nodes)
	return 100 * rawTFlops * PeakFactor / peak
}
