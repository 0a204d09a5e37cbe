// Package comms models the halo-exchange communication strategies of
// Section V ("Communication Autotuning") and picks the policy for an
// exchange. When a multi-process stencil runs on an MPI+GPU system there
// are several ways to move the halos - stage through CPU memory with the
// GPU DMA engines, use zero-copy reads/writes, or GPUDirect RDMA straight
// between GPU and NIC - crossed with coarse-grained (one batched exchange,
// fewer latency events, less overlap) or fine-grained (per-dimension
// messages, more latency events, better overlap) scheduling. Which
// combination wins depends on message size, node count, topology and
// software support, so Model.Best evaluates every admissible choice on the
// calibrated model for the exchange at hand - the paper's policy
// autotuning, with the model standing in for QUDA's timed trial runs.
// There is no cache: the choice is a function of the exchange alone.
package comms

import (
	"fmt"
	"math"

	"femtoverse/internal/machine"
)

// Policy enumerates the transfer mechanisms of Section V.
type Policy int

const (
	// StagedDMA copies halos GPU->CPU with the DMA engines and posts
	// regular MPI from host memory; it needs GPU/CPU synchronization, so
	// it carries the largest per-message overhead.
	StagedDMA Policy = iota
	// ZeroCopy has the NIC read (write) GPU halos through mapped CPU
	// memory: cheaper synchronization, reduced effective bandwidth.
	ZeroCopy
	// GDR is GPUDirect RDMA: direct GPU<->NIC transfers, full bandwidth
	// and minimal latency, available only when system software supports
	// it (not on Sierra/Summit at submission time).
	GDR
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case StagedDMA:
		return "staged-dma"
	case ZeroCopy:
		return "zero-copy"
	case GDR:
		return "gpudirect-rdma"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Choice is a complete communication configuration.
type Choice struct {
	Policy Policy
	// Fine selects fine-grained per-dimension exchange (better overlap,
	// more latency events) over one coarse batched exchange.
	Fine bool
}

// String implements fmt.Stringer.
func (c Choice) String() string {
	g := "coarse"
	if c.Fine {
		g = "fine"
	}
	return c.Policy.String() + "/" + g
}

// Exchange describes one stencil application's communication requirement
// on a single process.
type Exchange struct {
	// InterBytes / IntraBytes are the halo bytes crossing node boundaries
	// and staying inside the node (NVLink), per operator application.
	InterBytes float64
	IntraBytes float64
	// Dims is the number of partitioned dimensions (message batches).
	Dims int
	// GPUsPerNIC is how many GPUs share the node's injection bandwidth.
	GPUsPerNIC int
	// Nodes is the span of the job: larger jobs cross more switch levels
	// and suffer adaptive-routing congestion (the reason the paper's
	// Fig. 4 strong scaling collapses past ~2000 GPUs while the 4-node
	// jobs of Fig. 5 weak-scale perfectly).
	Nodes int
	// ComputeSeconds is the overlappable interior-compute time.
	ComputeSeconds float64
}

// Model evaluates exchange times for the policies on a given machine.
type Model struct {
	M machine.Machine
}

// Per-policy characteristics. Bandwidth fractions and latencies are
// calibrated so the relative ordering matches the qualitative behaviour
// of Section V: staged DMA loses bandwidth to the extra hop and pays the
// CPU-sync cost per message; zero-copy trades bandwidth for latency; GDR
// is strictly best when available.
const (
	latStaged      = 18e-6 // seconds per message batch, incl. GPU/CPU sync
	latZeroCopy    = 7e-6
	latGDR         = 3e-6
	bwFracStaged   = 0.85
	bwFracZeroCopy = 0.60
	bwFracGDR      = 1.00
	// congestionNodes sets the scale of the fabric-congestion penalty:
	// effective inter-node bandwidth falls as 1/(1 + nodes/congestionNodes)
	// as a job spans more of the fat tree. Calibrated so the Fig. 4
	// Summit strong-scaling rollover lands past ~2000 GPUs.
	congestionNodes = 120.0
)

// overlap returns the fraction of the exchange hidden under interior
// compute. It depends strongly on the policy: GPUDirect streams
// independently of the host; staged DMA serializes on GPU/CPU
// synchronization (which is why the missing GDR support "limited our
// multi-node capability and scaling" on the CORAL machines).
func overlap(c Choice) float64 {
	var base float64
	switch c.Policy {
	case GDR:
		base = 0.60
	case ZeroCopy:
		base = 0.40
	case StagedDMA:
		base = 0.20
	}
	if c.Fine {
		base += 0.20
	}
	return base
}

// Available reports whether the policy can run on the machine.
func (m Model) Available(p Policy) bool {
	if p == GDR {
		return m.M.GPUDirectRDMA
	}
	return true
}

// Choices enumerates the admissible configurations on this machine.
func (m Model) Choices() []Choice {
	var out []Choice
	for _, p := range []Policy{StagedDMA, ZeroCopy, GDR} {
		if !m.Available(p) {
			continue
		}
		out = append(out, Choice{Policy: p, Fine: false}, Choice{Policy: p, Fine: true})
	}
	return out
}

// rawTime returns the un-overlapped wire time plus latency of the choice.
func (m Model) rawTime(c Choice, ex Exchange) float64 {
	congestion := 1 + float64(max(0, ex.Nodes-1))/congestionNodes
	nicShare := m.M.InterconnectGB * 1e9 / float64(max(1, ex.GPUsPerNIC)) / congestion
	var bw, lat float64
	switch c.Policy {
	case StagedDMA:
		// The staged path is limited by the weaker of the CPU link share
		// and the NIC share.
		cpuShare := m.M.CPUGPUBWGB * 1e9 / float64(max(1, ex.GPUsPerNIC))
		bw = bwFracStaged * math.Min(cpuShare, nicShare)
		lat = latStaged
	case ZeroCopy:
		bw = bwFracZeroCopy * nicShare
		lat = latZeroCopy
	case GDR:
		bw = bwFracGDR * nicShare
		lat = latGDR
	}
	if bw <= 0 {
		return math.Inf(1)
	}
	// Intra-node halos ride NVLink regardless of the inter-node policy.
	nvl := m.M.NVLinkGB * 1e9
	wire := ex.InterBytes/bw + ex.IntraBytes/nvl
	batches := 1.0
	if c.Fine {
		batches = float64(max(1, ex.Dims)) * 2 // fwd+bwd per dimension
	}
	return wire + batches*lat
}

// ExposedTime returns the communication time left exposed after
// overlapping with interior compute: the quantity that extends the
// stencil's iteration beyond pure compute.
func (m Model) ExposedTime(c Choice, ex Exchange) float64 {
	raw := m.rawTime(c, ex)
	hidden := overlap(c) * math.Min(raw, ex.ComputeSeconds)
	return math.Max(0, raw-hidden)
}

// Best evaluates every admissible choice for the exchange and returns the
// one with the least exposed time, the first on a tie, with that time.
func (m Model) Best(ex Exchange) (Choice, float64) {
	best := Choice{}
	bestT := math.Inf(1)
	for _, c := range m.Choices() {
		if t := m.ExposedTime(c, ex); t < bestT {
			best, bestT = c, t
		}
	}
	return best, bestT
}
