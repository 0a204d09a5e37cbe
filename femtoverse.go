// Package femtoverse is a Go reproduction of "Simulating the weak death
// of the neutron in a femtoscale universe with near-Exascale computing"
// (Berkowitz et al., SC 2018): a lattice-QCD calculation of the nucleon
// axial coupling gA - and through it the Standard-Model neutron lifetime
// - built on a Mobius domain-wall Dirac operator, a mixed-precision
// red-black-preconditioned CG solver with communication-policy
// autotuning, the Feynman-Hellmann propagator
// algorithm, epsilon-tensor baryon contractions, and a discrete-event
// model of the CORAL supercomputers with METAQ- and mpi_jm-style job
// management.
//
// This root package is the public facade: the doors README.md, examples/
// and example_test.go walk through, the types their signatures name, and
// the constructors their option fields need - a single import for an
// application. Everything else stays in the internal packages. The entry
// points most users want:
//
//   - RunSynthetic reproduces the paper's Fig. 1 statistics (the FH
//     method against the traditional method with 10x the samples) and
//     the neutron lifetime;
//   - RunRealPipeline executes the full production workflow - gauge
//     generation, Mobius solves, FH propagators, contractions - on a
//     laptop-scale lattice, sequentially with nothing attached;
//   - RunCampaign is the same pipeline with CampaignOptions: a worker
//     count (the live job runtime), a write-ahead journal, an allocation
//     budget, observability sinks, a result cache - none of which can
//     change a bit of the physics;
//   - Experiment regenerates any table or figure of the paper.
package femtoverse

import (
	"context"

	"femtoverse/internal/cache"
	"femtoverse/internal/cluster"
	"femtoverse/internal/contract"
	"femtoverse/internal/core"
	"femtoverse/internal/dirac"
	"femtoverse/internal/fault"
	"femtoverse/internal/figures"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/machine"
	"femtoverse/internal/mpijm"
	"femtoverse/internal/obs"
	"femtoverse/internal/perfmodel"
	"femtoverse/internal/physics"
	"femtoverse/internal/prop"
	jobrt "femtoverse/internal/runtime"
	"femtoverse/internal/solver"
)

// Lattice geometry and gauge fields.
type (
	// Geometry is the 4-D periodic lattice with neighbour tables.
	Geometry = lattice.Geometry
	// GaugeField is an SU(3) gauge configuration.
	GaugeField = gauge.Field
)

// NewLattice builds a lattice geometry; extents must be even and >= 2.
func NewLattice(x, y, z, t int) (*Geometry, error) {
	return lattice.New([4]int{x, y, z, t})
}

// UnitGauge returns the free-field configuration.
func UnitGauge(g *Geometry) *GaugeField { return gauge.NewUnit(g) }

// QuenchedEnsemble generates n equilibrated gauge configurations with the
// Metropolis sampler.
func QuenchedEnsemble(g *Geometry, seed int64, beta float64, n, therm, gap int) []*GaugeField {
	return gauge.Ensemble(g, seed, beta, n, therm, gap)
}

// Dirac operators and solvers.
type (
	// MobiusParams are the domain-wall operator parameters.
	MobiusParams = dirac.MobiusParams
	// Mobius is the 5-D Mobius domain-wall operator.
	Mobius = dirac.Mobius
	// MobiusEO is its red-black Schur-preconditioned form.
	MobiusEO = dirac.MobiusEO
	// SolverParams configures a CGNE solve.
	SolverParams = solver.Params
	// SolverStats reports a completed solve.
	SolverStats = solver.Stats
	// Precision selects the sloppy-stage precision.
	Precision = solver.Precision
)

// Solver precisions.
const (
	Double = solver.Double
	Single = solver.Single
	Half   = solver.Half
)

// NewMobius builds the domain-wall operator over a gauge field.
func NewMobius(u *GaugeField, p MobiusParams) (*Mobius, error) { return dirac.NewMobius(u, p) }

// NewMobiusEO builds the preconditioned operator.
func NewMobiusEO(m *Mobius) (*MobiusEO, error) { return dirac.NewMobiusEO(m) }

// Solve runs the production mixed-precision CGNE on the preconditioned
// system D x = b and returns the solution.
func Solve(eo *MobiusEO, b []complex128, p SolverParams) ([]complex128, SolverStats, error) {
	var sloppy solver.Linear32
	if p.Precision != solver.Double {
		sloppy = dirac.NewMobiusEO32(eo)
	}
	return solver.CGNEMixed(context.Background(), eo, sloppy, b, p)
}

// Propagators and contractions.
type (
	// Propagator is a 12-component quark propagator.
	Propagator = prop.Propagator
	// QuarkSolver computes propagators and FH propagators.
	QuarkSolver = prop.QuarkSolver
)

// NewQuarkSolver builds the per-configuration solver stack.
func NewQuarkSolver(eo *MobiusEO, p SolverParams) *QuarkSolver {
	return prop.NewQuarkSolver(eo, p)
}

// Pion2pt returns the zero-momentum pion correlator.
func Pion2pt(p *Propagator, t0 int) []float64 { return contract.Pion2pt(p, t0) }

// EffectiveMass returns log(C(t)/C(t+1)).
func EffectiveMass(c []float64) []float64 { return contract.EffectiveMass(c) }

// Physics campaigns.
type (
	// SyntheticResult is the Fig. 1 campaign outcome.
	SyntheticResult = core.SyntheticResult
	// RealPipelineResult is the real-lattice campaign outcome.
	RealPipelineResult = core.RealResult
)

// NeutronLifetime evaluates Eq. (1): tau_n = 5172.0 / (1 + 3 gA^2) s.
func NeutronLifetime(gA, gAErr float64) (tau, tauErr float64) {
	return physics.NeutronLifetime(gA, gAErr)
}

// RunSynthetic runs the full Fig. 1 statistical campaign.
func RunSynthetic(nSamples, tradFactor int, seed int64) (*SyntheticResult, error) {
	return core.RunSynthetic(nSamples, tradFactor, seed)
}

// Campaign is a checkpointable real-lattice measurement campaign.
type Campaign = core.Campaign

// NewCampaign starts an empty campaign.
func NewCampaign(spec RealPipelineConfig) *Campaign { return core.NewCampaign(spec) }

// CampaignJournal is the campaign's crash-recovery write-ahead log: an
// append-only, CRC-framed file holding the campaign spec plus one
// record per finished configuration, durable every N appends.
type CampaignJournal = core.Journal

// CreateCampaignJournal starts a fresh journal for a new campaign, for
// CampaignOptions.Journal.
func CreateCampaignJournal(path string, spec RealPipelineConfig, every int) (*CampaignJournal, error) {
	return core.CreateJournal(path, spec, every)
}

// OpenCampaignJournal replays an existing journal — stopping at the
// first torn or corrupt record and truncating the tail — and returns
// the journal plus the campaign restored to the last good checkpoint.
func OpenCampaignJournal(path string, every int) (*CampaignJournal, *Campaign, error) {
	return core.OpenJournal(path, every)
}

// RealPipelineConfig is the campaign spec: geometry, action, ensemble
// and solver policy. An FHCampaignConfig embeds it.
type RealPipelineConfig = core.RealConfig

// DefaultRealPipelineConfig returns a seconds-scale configuration.
func DefaultRealPipelineConfig() RealPipelineConfig { return core.DefaultRealConfig() }

// RunRealPipeline runs the FH pipeline on real gauge configurations:
// RunCampaign with the zero options.
func RunRealPipeline(cfg RealPipelineConfig) (*RealPipelineResult, error) {
	return core.RunReal(cfg)
}

// CampaignOptions chooses how a campaign executes - Workers (0 = on the
// calling goroutine, N = the job runtime), Journal, Budget/Preempt, Obs,
// Cache - and never what it computes. Campaign.Run takes the same struct
// for batch-by-batch campaigns.
type CampaignOptions = core.RunOptions

// RunCampaign runs the whole FH campaign under opts. The physics is
// bit-for-bit RunRealPipeline's at every option; the job report is nil
// when opts.Workers is 0.
func RunCampaign(ctx context.Context, cfg RealPipelineConfig, opts CampaignOptions) (*RealPipelineResult, *JobReport, error) {
	return core.Run(ctx, cfg, opts)
}

// Machines and performance models.
type (
	// Machine is one row of the paper's Table II.
	Machine = machine.Machine
	// PerfModel predicts solver performance on a machine.
	PerfModel = perfmodel.Model
	// Problem describes a lattice solve for the performance model.
	Problem = perfmodel.Problem
)

// Titan, Ray, Sierra and Summit return the Table II machines.
func Titan() Machine { return machine.Titan() }

// Ray returns the LLNL Pascal development system.
func Ray() Machine { return machine.Ray() }

// Sierra returns the LLNL CORAL system.
func Sierra() Machine { return machine.Sierra() }

// Summit returns the ORNL CORAL system.
func Summit() Machine { return machine.Summit() }

// NewPerfModel builds the calibrated performance model for a machine.
func NewPerfModel(m Machine) *PerfModel { return perfmodel.New(m) }

// Cluster simulation and job management.
type (
	// ClusterConfig shapes a simulated allocation.
	ClusterConfig = cluster.Config
	// ClusterTask is one schedulable unit of work.
	ClusterTask = cluster.Task
	// ClusterReport summarises a simulated campaign.
	ClusterReport = cluster.Report
	// SchedPolicy is a pluggable scheduling strategy.
	SchedPolicy = cluster.Policy
	// MpiJMParams configures the mpi_jm job manager.
	MpiJMParams = mpijm.Params
)

// Task kinds.
const (
	GPUTask = cluster.GPUTask
	CPUTask = cluster.CPUTask
)

// NaiveBundle returns the naive simultaneous-launch baseline.
func NaiveBundle(launchOverhead float64) SchedPolicy {
	return cluster.NaiveBundle{LaunchOverhead: launchOverhead}
}

// NewMpiJM returns the mpi_jm policy with defaulted parameters.
func NewMpiJM(p MpiJMParams) SchedPolicy { return mpijm.New(p) }

// SimulateCluster runs tasks under a policy on a simulated allocation.
func SimulateCluster(cfg ClusterConfig, tasks []ClusterTask, p SchedPolicy) (ClusterReport, error) {
	return cluster.Run(cfg, tasks, p)
}

// Execution runtime: the live job manager (mpi_jm on goroutines) that
// schedules real solve and contraction tasks with dependency tracking,
// EASY backfilling, a watchdog and bounded retry.
type (
	// JobTask is one schedulable unit of real work.
	JobTask = jobrt.Task
	// JobConfig shapes a pool: worker-class widths, retry and watchdog
	// policy, allocation budget, failure injection, observability.
	JobConfig = jobrt.Config
	// JobResult pairs a finished task with its value and lifecycle record.
	JobResult = jobrt.Result
	// JobReport summarises a pool run in the simulator's vocabulary.
	JobReport = jobrt.Report
	// JobBudget is a finite batch allocation: the wall-clock window the
	// pool may occupy and the grace in-flight work gets once a drain
	// begins. The pool refuses tasks whose calibrated estimate exceeds
	// the remaining allocation.
	JobBudget = jobrt.Budget
	// FaultPlan is the deterministic chaos plan: seeded, typed fault
	// injection keyed by task identity, shared by the live runtime and
	// the cluster simulator. Each fault kind has its own rate field.
	FaultPlan = fault.Plan
)

// Drain-path sentinels: refused work was never started (its estimate
// exceeded the remaining allocation), stranded work was cancelled by the
// hard phase of a drain. Both are excluded from JobReport.Failed and
// from the error RunJobs returns - they are the next allocation's work.
var (
	ErrJobRefused  = jobrt.ErrRefused
	ErrJobStranded = jobrt.ErrStranded
)

// Job worker classes: solve tasks model the GPU partition, contraction
// tasks the co-scheduled host cores.
const (
	SolveTask    = jobrt.Solve
	ContractTask = jobrt.Contract
)

// RunJobs executes a fixed task set on a fresh pool and returns the
// results in submission order with the utilization report.
func RunJobs(ctx context.Context, cfg JobConfig, tasks []JobTask) ([]JobResult, JobReport, error) {
	return jobrt.Run(ctx, cfg, tasks)
}

// Observability: the dependency-free metrics registry and span tracer
// that the job runtime and the solvers report into. Both
// are strictly opt-in - a nil registry or tracer is a no-op - and
// attaching them never changes the physics.
type (
	// MetricsRegistry is a registry of named counters, gauges and
	// histograms with deterministic snapshots.
	MetricsRegistry = obs.Registry
	// Tracer records spans and instants against an injected clock and
	// exports Chrome trace_event JSON (Perfetto, chrome://tracing).
	Tracer = obs.Tracer
	// TraceClock is a Tracer's injected time source.
	TraceClock = obs.Clock
	// CampaignObs bundles the sinks CampaignOptions.Obs threads through
	// the runtime into the solvers: campaign/attempt/solver spans land in
	// the tracer, the runtime and solver-work counters in the registry.
	CampaignObs = core.ObsConfig
)

// NewMetricsRegistry returns an empty metrics registry, for
// CampaignObs.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer returns a tracer on the given clock (nil selects the wall
// clock), for CampaignObs.Trace.
func NewTracer(clock TraceClock) *Tracer { return obs.NewTracer(clock) }

// Content-addressed result cache: dedupe identical solves across
// campaigns, processes and restarts. Results are keyed by the canonical
// hash of the full solve identity, so a warm campaign is bit-for-bit the
// cold one with the solver work skipped.
type (
	// ResultCache is the two-tier (memory LRU + disk) result store.
	ResultCache = cache.Cache
	// ResultCacheConfig shapes a store: directory, memory budget, sinks.
	ResultCacheConfig = cache.Config
)

// NewResultCache opens (or creates) a result store. The zero Config is a
// memory-only store with the default budget.
func NewResultCache(cfg ResultCacheConfig) (*ResultCache, error) { return cache.New(cfg) }

// Feynman-Hellmann campaigns over the cache: an FH campaign caches
// propagators (not just correlators), so adding a new current insertion
// to an already-measured ensemble reuses every base propagator.
type (
	// FHInsertion names one current insertion and its spin structure.
	FHInsertion = core.Insertion
	// FHCampaignConfig is a RealPipelineConfig plus its insertion list.
	FHCampaignConfig = core.FHCampaignConfig
	// FHCampaignResult holds per-insertion FH correlators and the solve
	// counts that show what the cache saved.
	FHCampaignResult = core.FHCampaignResult
)

// RunFHCampaign measures every insertion on every configuration through
// the propagator cache; base propagators are solved once per
// configuration and shared across insertions. Insertion names must be
// distinct.
func RunFHCampaign(ctx context.Context, cfg FHCampaignConfig, store *ResultCache) (*FHCampaignResult, error) {
	return core.RunFHCampaign(ctx, cfg, store)
}

// Experiments.

// ExperimentResult is a rendered table or figure.
type ExperimentResult = figures.Result

// Experiment regenerates one table or figure of the paper (the names are
// `latbench -list`'s); quick trades statistics for speed.
func Experiment(name string, quick bool) (ExperimentResult, error) {
	return figures.Run(name, quick)
}

// Spin structures for the FH current insertions.

// SpinMatrix is a dense 4x4 spin matrix in the DeGrand-Rossi basis.
type SpinMatrix = linalg.SpinMatrix

// AxialCurrentGamma returns gamma_z gamma_5, the gA insertion.
func AxialCurrentGamma() SpinMatrix { return linalg.AxialGamma() }

// TensorCurrentGamma returns sigma_xy, the gT insertion.
func TensorCurrentGamma() SpinMatrix { return linalg.TensorGamma() }
