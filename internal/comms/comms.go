// Package comms models the halo-exchange communication strategies of
// Section V ("Communication Autotuning") and implements the
// communication-policy autotuner on top of them. When a multi-process
// stencil runs on an MPI+GPU system there are several ways to move the
// halos - stage through CPU memory with the GPU DMA engines, use
// zero-copy reads/writes, or GPUDirect RDMA straight between GPU and NIC
// - crossed with coarse-grained (one batched exchange, fewer latency
// events, less overlap) or fine-grained (per-dimension messages, more
// latency events, better overlap) scheduling. Which combination wins
// depends on message size, node count, topology and software support, so
// the tuner measures (here: evaluates the calibrated model) once per
// problem/machine key and caches the winner, exactly as QUDA does.
package comms

import (
	"fmt"
	"math"

	"femtoverse/internal/autotune"
	"femtoverse/internal/machine"
	"femtoverse/internal/obs"
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

// Tuner wraps the shared autotune cache with the machine-specific model:
// the paper's communication-policy autotuning.
type Tuner struct {
	Model Model
	T     *autotune.Tuner
}

// NewTuner builds a policy tuner over a fresh cache.
func NewTuner(m machine.Machine) *Tuner {
	return &Tuner{Model: Model{M: m}, T: autotune.New()}
}

// SetObserver forwards observability sinks to the underlying autotune
// cache: policy searches then show up as autotune.searches counts in the
// registry and "search" instants in the trace, alongside the kernel
// tuner's - one pane of glass for both tuning layers.
func (t *Tuner) SetObserver(reg *obs.Registry, sc obs.Scope) { t.T.SetObserver(reg, sc) }

// Best returns the optimal choice for the exchange, searching the model
// once per (machine, volume-key, nodes) and caching thereafter.
func (t *Tuner) Best(volumeKey string, nodes int, ex Exchange) Choice {
	choices := t.Model.Choices()
	cands := make([]autotune.LaunchParams, len(choices))
	for i := range choices {
		cands[i] = autotune.LaunchParams{Workers: i}
	}
	key := autotune.Key{
		Kernel: "halo-exchange",
		Volume: volumeKey,
		Aux:    fmt.Sprintf("machine=%s,nodes=%d", t.Model.M.Name, nodes),
	}
	win := t.T.SearchModelled(key, cands, func(p autotune.LaunchParams) float64 {
		return t.Model.ExposedTime(choices[p.Workers], ex)
	})
	return choices[win.Workers]
}

// BestFixed evaluates all choices and returns the winner without caching;
// used by the ablation benchmarks comparing tuned vs fixed policies.
func (m Model) BestFixed(ex Exchange) (Choice, float64) {
	best := Choice{}
	bestT := math.Inf(1)
	for _, c := range m.Choices() {
		if t := m.ExposedTime(c, ex); t < bestT {
			best, bestT = c, t
		}
	}
	return best, bestT
}
