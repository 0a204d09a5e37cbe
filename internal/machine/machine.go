// Package machine encodes Table II of the paper: the node architecture,
// GPU generation, bandwidths and software stacks of the four systems used
// in the study - Titan, Ray, Sierra and Summit - plus the calibration
// constants the performance model derives from the paper's own measured
// operating points (the 139/516/975 GB/s effective per-GPU bandwidths of
// Fig. 3c).
package machine

import "fmt"

// GPUGen enumerates the GPU architecture generations of the study.
type GPUGen int

const (
	// K20X is the Kepler GPU of Titan.
	K20X GPUGen = iota
	// P100 is the Pascal GPU of Ray.
	P100
	// V100 is the Volta GPU of Sierra and Summit.
	V100
)

// String implements fmt.Stringer.
func (g GPUGen) String() string {
	switch g {
	case K20X:
		return "K20X"
	case P100:
		return "P100"
	case V100:
		return "V100"
	default:
		return fmt.Sprintf("GPUGen(%d)", int(g))
	}
}

// Machine is one row of Table II plus derived calibration constants.
type Machine struct {
	Name        string
	Nodes       int
	GPUsPerNode int
	CPU         string
	GPU         GPUGen

	// Table II rows, in the paper's units.
	FP32PerNodeTF  float64 // single-precision peak per node, TFLOPS
	GPUBWPerNodeGB float64 // aggregate GPU memory bandwidth per node, GB/s
	CPUGPUBWGB     float64 // CPU<->GPU link bandwidth, GB/s
	InterconnectGB float64 // injection bandwidth per node, GB/s

	// NVLinkGB is the GPU<->GPU bandwidth inside a node (PCIe on Titan).
	NVLinkGB float64

	// CacheAmp is the effective-bandwidth amplification of the
	// generation's cache hierarchy, calibrated from the paper's Fig. 3c
	// best operating points: the sustained effective bandwidth per GPU
	// equals memory bandwidth x CacheAmp (0.56 / 0.72 / 1.08 for
	// K20X / P100 / V100 - Volta's larger L1+L2 amplifies past DRAM).
	CacheAmp float64

	// GPUDirectRDMA records whether direct GPU<->NIC transfers were
	// available; the paper notes Sierra and Summit did NOT support it at
	// submission time, limiting multi-node scaling.
	GPUDirectRDMA bool

	// CPUSlotsPerNode is the core count available to CPU-only tasks when
	// co-scheduling contractions with GPU solves.
	CPUSlotsPerNode int

	// Software stack (Table II bottom rows).
	GCC, MPI, CUDA string
}

// FP32PerGPUTF returns the single-precision peak of one GPU, TFLOPS.
func (m Machine) FP32PerGPUTF() float64 { return m.FP32PerNodeTF / float64(m.GPUsPerNode) }

// MemBWPerGPUGB returns one GPU's memory bandwidth in GB/s.
func (m Machine) MemBWPerGPUGB() float64 { return m.GPUBWPerNodeGB / float64(m.GPUsPerNode) }

// EffectiveBWPerGPUGB returns the calibrated sustained effective bandwidth
// per GPU (GB/s) at the best operating point.
func (m Machine) EffectiveBWPerGPUGB() float64 { return m.MemBWPerGPUGB() * m.CacheAmp }

// Titan returns the Cray XK7 at OLCF (the previous state of the art the
// paper compares against).
func Titan() Machine {
	return Machine{
		Name: "Titan", Nodes: 18688, GPUsPerNode: 1,
		CPU: "AMD Opteron", GPU: K20X,
		FP32PerNodeTF: 4, GPUBWPerNodeGB: 250,
		CPUGPUBWGB: 6, InterconnectGB: 8, NVLinkGB: 6,
		CacheAmp:        139.0 / 250.0,
		GPUDirectRDMA:   true, // Gemini-era GPUDirect was available
		CPUSlotsPerNode: 16,
		GCC:             "4.9.3", MPI: "Cray MPICH 7.6.3", CUDA: "7.5.18",
	}
}

// Ray returns the LLNL pre-CORAL Pascal development system.
func Ray() Machine {
	return Machine{
		Name: "Ray", Nodes: 54, GPUsPerNode: 4,
		CPU: "IBM POWER8", GPU: P100,
		FP32PerNodeTF: 44, GPUBWPerNodeGB: 2880,
		CPUGPUBWGB: 20, InterconnectGB: 23, NVLinkGB: 40,
		CacheAmp:        516.0 / 720.0,
		GPUDirectRDMA:   true,
		CPUSlotsPerNode: 20,
		GCC:             "4.9.3", MPI: "Spectrum 2017.04.03", CUDA: "9.0.176",
	}
}

// Sierra returns the LLNL CORAL system.
func Sierra() Machine {
	return Machine{
		Name: "Sierra", Nodes: 4200, GPUsPerNode: 4,
		CPU: "IBM POWER9", GPU: V100,
		FP32PerNodeTF: 60, GPUBWPerNodeGB: 3600,
		CPUGPUBWGB: 75, InterconnectGB: 23, NVLinkGB: 75,
		CacheAmp:        975.0 / 900.0,
		GPUDirectRDMA:   false, // not supported at submission time (paper V)
		CPUSlotsPerNode: 40,
		GCC:             "4.9.3", MPI: "MVAPICH2 2.3", CUDA: "9.2.148",
	}
}

// Summit returns the ORNL CORAL system.
func Summit() Machine {
	return Machine{
		Name: "Summit", Nodes: 4600, GPUsPerNode: 6,
		CPU: "IBM POWER9", GPU: V100,
		FP32PerNodeTF: 90, GPUBWPerNodeGB: 5400,
		CPUGPUBWGB: 50, InterconnectGB: 23, NVLinkGB: 50,
		CacheAmp:        975.0 / 900.0,
		GPUDirectRDMA:   false,
		CPUSlotsPerNode: 42,
		GCC:             "4.8.5", MPI: "Spectrum 2018.01.10", CUDA: "9.1.85",
	}
}

// All returns the four systems in the paper's Table II order.
func All() []Machine {
	return []Machine{Titan(), Ray(), Sierra(), Summit()}
}
