// Package scenario is the seeded scenario generator and soak harness of
// the robustness layer: it turns the repo's point guarantees (chaos
// determinism, drain/admission accounting, journaled resume, cache
// warmth) into a property checked over an unbounded space of generated
// campaigns. A scenario is a workload mix - contraction-heavy fan-out,
// deflated solves amortizing a setup stage, FH/cache-warm reruns,
// mixed-precision sweeps, bursty multi-tenant arrivals under per-tenant
// budgets - with an adversity plan layered on top: identity-keyed
// fault.Plan chaos, a mid-run preemption notice, a wall-clock budget
// that expires mid-campaign, or a cache-corruption episode. Every draw
// the generator makes is a pure function of (seed, index) through
// fault.Uniform, so a scenario replays bit-for-bit: the same seed and
// index regenerate the same workload, the same chaos, and - for the
// deterministic invariant subset - the same canonical report bytes.
package scenario

import (
	"fmt"
	"time"

	"femtoverse/internal/core"
	"femtoverse/internal/dirac"
	"femtoverse/internal/fault"
	"femtoverse/internal/solver"
)

// Family enumerates the workload mix families, modelled on the campaign
// shapes of the source paper's production runs.
type Family int

const (
	// ContractionHeavy: few propagator solves, each fanning out into
	// many cheap dependent contractions - the workload mpi_jm's
	// co-scheduling exists for.
	ContractionHeavy Family = iota
	// Deflated: one expensive, 2-slot setup stage (modelled as a task
	// duration, the shape of an eigenvector deflation setup) amortized
	// across many right-hand-side solves that depend on it.
	Deflated
	// FHCacheWarm: a Feynman-Hellmann-style mix whose physics episode
	// exercises the content-addressed result cache (warm rerun must be
	// bit-identical and solve-free).
	FHCacheWarm
	// MixedPrecision: solves spread over precision tiers with distinct
	// cost profiles; the physics episode sweeps solver precisions.
	MixedPrecision
	// BurstyMultiTenant: several tenants submitting bursts at staggered
	// arrival times, each constrained to a per-tenant nominal budget.
	BurstyMultiTenant

	// NumFamilies counts the mix families.
	NumFamilies
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case ContractionHeavy:
		return "contraction-heavy"
	case Deflated:
		return "deflated"
	case FHCacheWarm:
		return "fh-cache-warm"
	case MixedPrecision:
		return "mixed-precision"
	case BurstyMultiTenant:
		return "bursty-multi-tenant"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// AdversityKind enumerates the adversity archetypes layered on a mix.
type AdversityKind int

const (
	// Calm injects nothing: the parity baseline.
	Calm AdversityKind = iota
	// ComputeChaos injects Transient/Panic/Hang/Corrupt task faults.
	ComputeChaos
	// NetChaos injects the network fault kinds (drop, delay, corrupt,
	// partition), harmless to tasks but priced by the simulator.
	NetChaos
	// Preemption fires an external preemption notice (Config.Preempt)
	// early in the run: the pool must drain, refuse queued work, and
	// strand nothing without a drain event.
	Preemption
	// BudgetExpiry bounds the allocation wall clock so it expires with
	// work outstanding; an oversized "monster" task must be refused by
	// admission control on both the live and simulated sides.
	BudgetExpiry
	// CacheCorruption damages every on-disk cache entry between a cold
	// and a warm physics campaign: corruption-is-a-miss must recompute
	// to bit-identical correlators.
	CacheCorruption

	// NumAdversities counts the adversity archetypes.
	NumAdversities
)

// String implements fmt.Stringer.
func (a AdversityKind) String() string {
	switch a {
	case Calm:
		return "calm"
	case ComputeChaos:
		return "compute-chaos"
	case NetChaos:
		return "net-chaos"
	case Preemption:
		return "preemption"
	case BudgetExpiry:
		return "budget-expiry"
	case CacheCorruption:
		return "cache-corruption"
	default:
		return fmt.Sprintf("adversity(%d)", int(a))
	}
}

// TaskSpec is one synthetic task of a generated workload. Durations and
// arrivals are in simulated seconds; the live runner scales them by
// TimeScale.
type TaskSpec struct {
	ID    int
	Name  string
	Solve bool // solve (GPU-analog) vs contract (CPU-analog) class
	// Slots is the solve-class width the task occupies (GPUs in the
	// simulator twin); 0 means 1.
	Slots     int
	Seconds   float64
	DependsOn []int
	// Tenant owns the task in the bursty multi-tenant family (-1 when
	// tenancy does not apply).
	Tenant int
	// ArrivalSeconds staggers the task's submission after the
	// allocation start (0 = available immediately).
	ArrivalSeconds float64
}

// Workload is a generated task mix.
type Workload struct {
	// SolveWorkers is the live solve-class width and the simulated node
	// count (one GPU per node); the contract class matches it, with two
	// CPU slots per simulated node.
	SolveWorkers int
	Tasks        []TaskSpec
	// Tenants and TenantBudget describe the bursty family's tenancy: the
	// generator never hands tenant t more total nominal solve-seconds
	// than TenantBudget[t], and the runner re-verifies the constraint.
	Tenants      int
	TenantBudget []float64
}

// PhysicsEpisode selects the real-campaign check run alongside the
// synthetic workload: every scenario proves its correlators bit-identical
// to an unperturbed sequential reference, and the flags add the cache,
// journal-resume, and precision-sweep variants.
type PhysicsEpisode struct {
	Spec core.RealConfig
	// Journal runs an interrupted (budgeted or preempted) journaled
	// campaign and requires the resume to reproduce the reference
	// fingerprint bit-for-bit.
	Journal bool
	// JournalWall is the interrupted campaign's live wall-clock budget
	// (BudgetExpiry adversity).
	JournalWall time.Duration
	// NoticeAfter is the interrupted campaign's preemption-notice delay
	// (Preemption adversity).
	NoticeAfter time.Duration
	// Cache runs a cold cached campaign then a warm one over the same
	// store; the warm run must be bit-identical (and solve-free unless
	// CorruptCache forces recomputation).
	Cache bool
	// CorruptCache damages every disk entry between cold and warm.
	CorruptCache bool
	// Precisions sweeps additional solver precisions, each checked
	// concurrent-vs-sequential.
	Precisions []solver.Precision
}

// Scenario is one generated case: a workload, an adversity plan, and a
// physics episode, all pure functions of (Seed, Index).
type Scenario struct {
	Seed      int64
	Index     int
	Name      string
	Family    Family
	Adversity AdversityKind
	Workload  Workload
	// Plan is the identity-keyed chaos plan shared verbatim by the live
	// pool and the simulator twin.
	Plan fault.Plan
	// PreemptAfter is the live delay before the preemption notice fires
	// (Preemption adversity; one simulated second, before any task can
	// complete, so the drain path is exercised deterministically).
	PreemptAfter time.Duration
	// SimWallSeconds is the allocation wall clock in simulated seconds
	// (BudgetExpiry adversity); the live budget is the scaled value.
	SimWallSeconds float64
	// MonsterID is the oversized task admission control must refuse on
	// both sides (-1 when the scenario has none).
	MonsterID int
	Physics   PhysicsEpisode
}

// Deterministic reports whether the scenario's live outcome partition
// (per-task success, fault counts, payloads) is a closed-form function
// of the plan - true unless the allocation can end mid-run, which makes
// the set of completed tasks depend on wall-clock timing. Only
// deterministic scenarios contribute live outcome fields to the
// canonical report; expiring scenarios are held to conservation, drain,
// and refusal invariants instead.
func (sc Scenario) Deterministic() bool {
	return sc.Adversity != Preemption && sc.Adversity != BudgetExpiry
}

// Generator draw salts: every purpose keys its variates with a distinct
// leading constant so adding a draw never shifts unrelated ones.
const (
	saltWorkers = iota + 1
	saltShape
	saltDur
	saltFan
	saltTenant
	saltArrival
	saltPlan
	saltWall
	saltPhysics
)

// dice derives deterministic variates for one (seed, index) pair through
// the chaos engine's keyed-hash primitive.
type dice struct {
	seed  int64
	index int64
}

func (d dice) unit(keys ...int64) float64 {
	ks := make([]int64, 0, len(keys)+1)
	ks = append(ks, d.index)
	ks = append(ks, keys...)
	return fault.Uniform(d.seed, ks...)
}

func (d dice) between(lo, hi float64, keys ...int64) float64 {
	return lo + (hi-lo)*d.unit(keys...)
}

func (d dice) intn(n int, keys ...int64) int {
	if n <= 0 {
		return 0
	}
	v := int(d.unit(keys...) * float64(n))
	if v >= n {
		v = n - 1
	}
	return v
}

// Generate produces scenario `index` of the seeded scenario space. The
// family and adversity cycles are coprime (5 and 6), so eight
// consecutive indices cover every mix family plus at least one
// preemption, one budget-expiry, and one net-fault scenario, and thirty
// cover every (family, adversity) pair.
func Generate(seed int64, index int) Scenario {
	if index < 0 {
		index = -index
	}
	d := dice{seed: seed, index: int64(index)}
	fam := Family(index % int(NumFamilies))
	advCycle := [...]AdversityKind{Calm, ComputeChaos, NetChaos, Preemption, BudgetExpiry, CacheCorruption}
	adv := advCycle[index%len(advCycle)]

	sc := Scenario{
		Seed:      seed,
		Index:     index,
		Family:    fam,
		Adversity: adv,
		MonsterID: -1,
		Workload:  generateWorkload(fam, d),
	}
	sc.Name = fmt.Sprintf("s%03d-%s-%s", index, fam, adv)
	applyAdversity(&sc, d)
	sc.Physics = generatePhysics(fam, adv, d)
	return sc
}

// generateWorkload builds the task mix of one family.
func generateWorkload(fam Family, d dice) Workload {
	w := Workload{
		SolveWorkers: 4 + 2*d.intn(3, saltWorkers),
		Tenants:      0,
	}
	id := 0
	solve := func(name string, slots int, seconds, arrival float64, tenant int, deps ...int) int {
		w.Tasks = append(w.Tasks, TaskSpec{
			ID: id, Name: name, Solve: true, Slots: slots, Seconds: seconds,
			DependsOn: deps, Tenant: tenant, ArrivalSeconds: arrival,
		})
		id++
		return id - 1
	}
	contract := func(name string, seconds, arrival float64, tenant int, deps ...int) int {
		w.Tasks = append(w.Tasks, TaskSpec{
			ID: id, Name: name, Seconds: seconds,
			DependsOn: deps, Tenant: tenant, ArrivalSeconds: arrival,
		})
		id++
		return id - 1
	}

	switch fam {
	case ContractionHeavy:
		nSolve := 3 + d.intn(3, saltShape)
		for s := 0; s < nSolve; s++ {
			sid := solve(fmt.Sprintf("solve-%d", s), 1,
				d.between(6, 14, saltDur, int64(s)), 0, -1)
			fan := 4 + d.intn(5, saltFan, int64(s))
			for c := 0; c < fan; c++ {
				contract(fmt.Sprintf("contract-%d-%d", s, c),
					d.between(0.5, 1.5, saltDur, int64(s), int64(c)), 0, -1, sid)
			}
		}
	case Deflated:
		// The setup keeps its historical name: workload digests hash it.
		setup := solve("lanczos-setup", 2, d.between(15, 25, saltDur), 0, -1)
		nRHS := 6 + d.intn(6, saltShape)
		for r := 0; r < nRHS; r++ {
			rid := solve(fmt.Sprintf("rhs-%d", r), 1,
				d.between(3, 6, saltDur, int64(r)), 0, -1, setup)
			contract(fmt.Sprintf("contract-%d", r),
				d.between(0.5, 1.0, saltDur, int64(r), 1), 0, -1, rid)
		}
	case FHCacheWarm:
		nSolve := 4 + d.intn(4, saltShape)
		for s := 0; s < nSolve; s++ {
			sid := solve(fmt.Sprintf("fh-solve-%d", s), 1,
				d.between(5, 10, saltDur, int64(s)), 0, -1)
			contract(fmt.Sprintf("fh-contract-%d", s),
				d.between(0.8, 1.6, saltDur, int64(s), 1), 0, -1, sid)
		}
	case MixedPrecision:
		tiers := [...]struct {
			name string
			base float64
		}{{"half", 3}, {"single", 6}, {"double", 12}}
		for ti := range tiers {
			n := 2 + d.intn(3, saltShape, int64(ti))
			for s := 0; s < n; s++ {
				sid := solve(fmt.Sprintf("%s-solve-%d", tiers[ti].name, s), 1,
					tiers[ti].base*d.between(0.8, 1.2, saltDur, int64(ti), int64(s)), 0, -1)
				contract(fmt.Sprintf("%s-contract-%d", tiers[ti].name, s),
					d.between(0.4, 0.8, saltDur, int64(ti), int64(s), 1), 0, -1, sid)
			}
		}
	case BurstyMultiTenant:
		w.Tenants = 2 + d.intn(3, saltShape)
		for t := 0; t < w.Tenants; t++ {
			budget := d.between(15, 35, saltTenant, int64(t))
			arrival := float64(t) * d.between(3, 8, saltArrival, int64(t))
			w.TenantBudget = append(w.TenantBudget, budget)
			spent := 0.0
			for s := 0; ; s++ {
				cost := d.between(4, 8, saltDur, int64(t), int64(s))
				if spent+cost > budget {
					break
				}
				spent += cost
				sid := solve(fmt.Sprintf("t%d-solve-%d", t, s), 1, cost, arrival, t)
				contract(fmt.Sprintf("t%d-contract-%d", t, s),
					d.between(0.4, 0.9, saltDur, int64(t), int64(s), 1), arrival, t, sid)
			}
		}
	}
	return w
}

// applyAdversity layers the index's adversity archetype onto a scenario.
func applyAdversity(sc *Scenario, d dice) {
	planSeed := sc.Seed*1_000_003 + int64(sc.Index) + 17
	if planSeed == 0 {
		planSeed = 1
	}
	switch sc.Adversity {
	case ComputeChaos:
		sc.Plan = fault.Plan{
			Seed:          planSeed,
			Transient:     d.between(0.05, 0.20, saltPlan, 1),
			Panic:         d.between(0.01, 0.06, saltPlan, 2),
			Hang:          d.between(0.005, 0.03, saltPlan, 3),
			Corrupt:       d.between(0.02, 0.08, saltPlan, 4),
			MaxInjections: 2 + d.intn(3, saltPlan, 5),
		}
	case NetChaos:
		sc.Plan = fault.Plan{
			Seed:          planSeed,
			NetDrop:       d.between(0.04, 0.12, saltPlan, 1),
			NetDelay:      d.between(0.04, 0.12, saltPlan, 2),
			NetCorrupt:    d.between(0.02, 0.08, saltPlan, 3),
			NetPartition:  d.between(0.005, 0.02, saltPlan, 4),
			MaxInjections: 2 + d.intn(3, saltPlan, 5),
		}
	case Preemption:
		// One simulated second in: no task is shorter than that, so the
		// notice always lands with work in flight and queued - the drain
		// path fires on every replay.
		sc.PreemptAfter = TimeScale
	case BudgetExpiry:
		maxSec, total := 0.0, 0.0
		for i := range sc.Workload.Tasks {
			t := sc.Workload.Tasks[i]
			if t.Seconds > maxSec {
				maxSec = t.Seconds
			}
			total += t.Seconds
		}
		wall := d.between(0.4, 0.6, saltWall) * total / float64(sc.Workload.SolveWorkers)
		if floor := 2.5 * maxSec; wall < floor {
			wall = floor
		}
		sc.SimWallSeconds = wall
		// The monster exceeds the whole allocation fifty-fold: admission
		// control must refuse it on both the live and simulated sides,
		// deterministically, whatever else the expiry strands.
		sc.MonsterID = len(sc.Workload.Tasks)
		sc.Workload.Tasks = append(sc.Workload.Tasks, TaskSpec{
			ID: sc.MonsterID, Name: "monster", Solve: true, Slots: 1,
			Seconds: 50 * wall, Tenant: -1,
		})
	}
}

// generatePhysics picks the real-campaign episode: a tiny but genuine
// Möbius campaign (seeded per scenario, so the sweep spans distinct
// ensembles) plus the adversity-specific variant.
func generatePhysics(fam Family, adv AdversityKind, d dice) PhysicsEpisode {
	ep := PhysicsEpisode{
		Spec: core.RealConfig{
			Dims:        [4]int{2, 2, 2, 4},
			Params:      dirac.MobiusParams{Ls: 2, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.3},
			NConfigs:    2 + d.intn(2, saltPhysics, 1),
			Seed:        100 + int64(d.intn(1000, saltPhysics, 2)),
			Beta:        5.8,
			ThermSweeps: 2,
			GapSweeps:   1,
			Tol:         1e-6,
			Prec:        solver.Single,
		},
	}
	switch adv {
	case Preemption:
		ep.Journal = true
		ep.NoticeAfter = time.Duration(d.between(20, 60, saltPhysics, 3)) * time.Millisecond
	case BudgetExpiry:
		ep.Journal = true
		ep.JournalWall = time.Duration(d.between(40, 120, saltPhysics, 4)) * time.Millisecond
	case CacheCorruption:
		ep.Cache = true
		ep.CorruptCache = true
	}
	if fam == FHCacheWarm {
		ep.Cache = true
	}
	if fam == MixedPrecision {
		ep.Precisions = []solver.Precision{solver.Double}
	}
	return ep
}
