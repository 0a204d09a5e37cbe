// Package femtoverse is a Go reproduction of "Simulating the weak death
// of the neutron in a femtoscale universe with near-Exascale computing"
// (Berkowitz et al., SC 2018): a lattice-QCD calculation of the nucleon
// axial coupling gA - and through it the Standard-Model neutron lifetime
// - built on a Mobius domain-wall Dirac operator, a mixed-precision
// red-black-preconditioned CG solver with run-time kernel and
// communication-policy autotuning, the Feynman-Hellmann propagator
// algorithm, epsilon-tensor baryon contractions, and a discrete-event
// model of the CORAL supercomputers with METAQ- and mpi_jm-style job
// management.
//
// This root package is the public facade: it re-exports the stable
// surface of the internal packages so applications can be written against
// a single import. The entry points most users want:
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
	"io"

	"femtoverse/internal/autotune"
	"femtoverse/internal/cache"
	"femtoverse/internal/cluster"
	"femtoverse/internal/comms"
	"femtoverse/internal/contract"
	"femtoverse/internal/core"
	"femtoverse/internal/dirac"
	"femtoverse/internal/domain"
	"femtoverse/internal/ensemble"
	"femtoverse/internal/fault"
	"femtoverse/internal/figures"
	"femtoverse/internal/fit"
	"femtoverse/internal/gauge"
	"femtoverse/internal/hio"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/machine"
	"femtoverse/internal/metaq"
	"femtoverse/internal/mpijm"
	"femtoverse/internal/obs"
	"femtoverse/internal/perfmodel"
	"femtoverse/internal/physics"
	"femtoverse/internal/prop"
	jobrt "femtoverse/internal/runtime"
	"femtoverse/internal/solver"
	"femtoverse/internal/stats"
	"femtoverse/internal/workflow"
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

// HMCParams configures the hybrid Monte Carlo sampler.
type HMCParams = gauge.HMCParams

// HMCEnsemble generates configurations with hybrid Monte Carlo (the
// production ensemble algorithm) and returns the sampler for its
// acceptance diagnostics.
func HMCEnsemble(g *Geometry, p HMCParams, n, therm, gap int) ([]*GaugeField, *gauge.HMC, error) {
	return gauge.HMCEnsemble(g, p, n, therm, gap)
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
	return SolveContext(context.Background(), eo, b, p)
}

// SolveContext is Solve under a context: cancellation or deadline expiry
// aborts the CG iteration mid-solve and returns the partial solution with
// a wrapped context error. The job runtime cancels attempts through it
// (watchdog, failure-domain loss, drain).
func SolveContext(ctx context.Context, eo *MobiusEO, b []complex128, p SolverParams) ([]complex128, SolverStats, error) {
	var sloppy solver.Linear32
	if p.Precision != solver.Double {
		sloppy = dirac.NewMobiusEO32(eo)
	}
	return solver.CGNEMixed(ctx, eo, sloppy, b, p)
}

// DistributedWilson is the Wilson operator executed with the paper's
// four-step halo pipeline over a process grid of rank goroutines.
type DistributedWilson = domain.Dist

// NewDistributedWilson decomposes the operator over the grid; the result
// satisfies the solver interface, so Solve-style drivers run on it
// unchanged.
func NewDistributedWilson(u *GaugeField, grid [4]int, mass float64) (*DistributedWilson, error) {
	return domain.NewDist(u, grid, mass)
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

// Proton2pt returns the positive-parity proton correlator.
func Proton2pt(u, d *Propagator, t0 int) []complex128 { return contract.Proton2pt(u, d, t0) }

// ProtonFH3pt returns the isovector axial FH three-point function.
func ProtonFH3pt(u, d, fhU, fhD *Propagator, t0 int) []complex128 {
	return contract.ProtonFH3pt(u, d, fhU, fhD, t0)
}

// Pion2ptMom returns the pion correlator at spatial momentum
// (2 pi / L) * mom.
func Pion2ptMom(p *Propagator, t0 int, mom [3]int) []complex128 {
	return contract.Pion2ptMom(p, t0, mom)
}

// Meson2pt returns the generic bilinear meson correlator for spin
// structure Gamma (gamma_5 reproduces Pion2pt; gamma_k the rho).
func Meson2pt(p *Propagator, t0 int, gamma linalg.SpinMatrix) []float64 {
	return contract.Meson2pt(p, t0, gamma)
}

// Rho2pt returns the polarization-averaged vector-meson correlator.
func Rho2pt(p *Propagator, t0 int) []float64 { return contract.Rho2pt(p, t0) }

// SmearedPointSource returns a gauge-covariantly smeared point source.
func SmearedPointSource(u *GaugeField, x0 [4]int, spin, color int, kappa float64, iters int) []complex128 {
	return prop.SmearedPointSource(u, x0, spin, color, kappa, iters)
}

// EffectiveMass returns log(C(t)/C(t+1)).
func EffectiveMass(c []float64) []float64 { return contract.EffectiveMass(c) }

// EffectiveGA returns the Fig. 1 observable g_eff(t).
func EffectiveGA(c3, c2 []float64) []float64 { return contract.EffectiveGA(c3, c2) }

// Physics analyses.
type (
	// GAResult is an extraction of the axial coupling.
	GAResult = physics.GAResult
	// FHEnsembleParams parameterizes the synthetic correlator generator.
	FHEnsembleParams = ensemble.FHParams
	// SyntheticResult is the Fig. 1 campaign outcome.
	SyntheticResult = core.SyntheticResult
	// RealPipelineResult is the real-lattice campaign outcome.
	RealPipelineResult = core.RealResult
	// FitResult is a completed nonlinear fit.
	FitResult = fit.Result
)

// A09M310 returns ensemble parameters calibrated to the paper's physical
// point (m_pi = 310 MeV, a = 0.09 fm, gA = 1.271).
func A09M310(n int, seed int64) FHEnsembleParams { return ensemble.A09M310(n, seed) }

// ExtractFH runs the Feynman-Hellmann gA analysis.
func ExtractFH(c2, cfh [][]float64, tmin, tmax int) (GAResult, error) {
	return physics.ExtractFH(c2, cfh, tmin, tmax)
}

// NeutronLifetime evaluates Eq. (1): tau_n = 5172.0 / (1 + 3 gA^2) s.
func NeutronLifetime(gA, gAErr float64) (tau, tauErr float64) {
	return physics.NeutronLifetime(gA, gAErr)
}

// ExtractFHWindowAverage model-averages the FH extraction over fit
// windows with AIC weights.
func ExtractFHWindowAverage(c2, cfh [][]float64, tmins []int, tmax int) (GAResult, fit.Average, error) {
	return physics.ExtractFHWindowAverage(c2, cfh, tmins, tmax)
}

// SpectrumResult is a ground-state mass determination.
type SpectrumResult = physics.SpectrumResult

// ExtractMass fits a ground-state mass from per-configuration correlators.
func ExtractMass(samples [][]float64, tmin, tmax int) (SpectrumResult, error) {
	return physics.ExtractMass(samples, tmin, tmax)
}

// EnsemblePoint is one ensemble's gA determination for the
// chiral-continuum extrapolation.
type EnsemblePoint = physics.EnsemblePoint

// ExtrapolateGA fits gA(eps_pi^2, a^2) over an ensemble grid and
// evaluates it at the physical point.
func ExtrapolateGA(points []EnsemblePoint, epsPi2Phys float64) (physics.ExtrapolationResult, error) {
	return physics.ExtrapolateGA(points, epsPi2Phys)
}

// Campaign is a checkpointable real-lattice measurement campaign.
type Campaign = core.Campaign

// NewCampaign starts an empty campaign.
func NewCampaign(spec RealPipelineConfig) *Campaign { return core.NewCampaign(spec) }

// LoadCampaign restores a campaign from an hio group.
func LoadCampaign(root *hio.Group) (*Campaign, error) { return core.LoadCampaign(root) }

// RunSynthetic runs the full Fig. 1 statistical campaign.
func RunSynthetic(nSamples, tradFactor int, seed int64) (*SyntheticResult, error) {
	return core.RunSynthetic(nSamples, tradFactor, seed)
}

// CampaignJournal is the campaign's crash-recovery write-ahead log: an
// append-only, CRC-framed file holding the campaign spec plus one
// record per finished configuration, durable every N appends.
type CampaignJournal = core.Journal

// CreateCampaignJournal starts a fresh journal for a new campaign.
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
// and solver policy. The FH campaigns of the workflow layer take the
// same type under the name FHPipelineConfig.
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

// Statistics.

// Jackknife returns the mean and jackknife error of a derived scalar.
func Jackknife(samples [][]float64, f func(mean []float64) float64) (value, err float64) {
	return stats.Jackknife(samples, f)
}

// Machines and performance models.
type (
	// Machine is one row of the paper's Table II.
	Machine = machine.Machine
	// PerfModel predicts solver performance on a machine.
	PerfModel = perfmodel.Model
	// PerfPoint is one scaling measurement.
	PerfPoint = perfmodel.Point
	// Problem describes a lattice solve for the performance model.
	Problem = perfmodel.Problem
	// CommPolicy is a halo-exchange strategy.
	CommPolicy = comms.Choice
	// Tuner is the QUDA-style run-time autotuner.
	Tuner = autotune.Tuner
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

// NewTuner returns an empty autotuner cache.
func NewTuner() *Tuner { return autotune.New() }

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
	// METAQPolicy is the backfilling bundler baseline.
	METAQPolicy = metaq.Policy
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
	// JobPool is the concurrent job-execution pool.
	JobPool = jobrt.Pool
	// JobTask is one schedulable unit of real work.
	JobTask = jobrt.Task
	// JobConfig shapes a pool: worker-class widths, retry and watchdog
	// policy, allocation budget, failure injection, observability.
	JobConfig = jobrt.Config
	// JobResult pairs a finished task with its value and lifecycle record.
	JobResult = jobrt.Result
	// JobReport summarises a pool run in the simulator's vocabulary.
	JobReport = jobrt.Report
	// JobClass selects the worker class a task runs on.
	JobClass = jobrt.Class
	// JobMetrics is one task's lifecycle record.
	JobMetrics = jobrt.TaskMetrics
	// JobBudget is a finite batch allocation: the wall-clock window the
	// pool may occupy and the grace in-flight work gets once a drain
	// begins. The pool refuses tasks whose calibrated estimate exceeds
	// the remaining allocation.
	JobBudget = jobrt.Budget
	// FaultPlan is the deterministic chaos plan: seeded, typed fault
	// injection keyed by task identity, shared by the live runtime and
	// the cluster simulator.
	FaultPlan = fault.Plan
	// FaultKind is one fault type from the taxonomy.
	FaultKind = fault.Kind
	// FaultCounts tallies injected faults by kind.
	FaultCounts = fault.Counts
)

// Fault kinds injectable through a FaultPlan.
const (
	FaultTransient  = fault.Transient
	FaultPanic      = fault.Panic
	FaultHang       = fault.Hang
	FaultCorrupt    = fault.Corrupt
	FaultDomainLoss = fault.DomainLoss
	// FaultPreempt ends the whole allocation early: it fires the pool's
	// drain path instead of failing the drawing task.
	FaultPreempt = fault.Preempt
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

// NewJobPool starts a job pool; Submit tasks, then Wait.
func NewJobPool(ctx context.Context, cfg JobConfig) (*JobPool, error) {
	return jobrt.New(ctx, cfg)
}

// RunJobs executes a fixed task set on a fresh pool and returns the
// results in submission order with the utilization report.
func RunJobs(ctx context.Context, cfg JobConfig, tasks []JobTask) ([]JobResult, JobReport, error) {
	return jobrt.Run(ctx, cfg, tasks)
}

// Observability: the dependency-free metrics registry and span tracer
// that the job runtime, the solvers and the autotuner report into. Both
// are strictly opt-in - a nil registry or tracer is a no-op - and
// attaching them never changes the physics.
type (
	// MetricsRegistry is a registry of named counters, gauges and
	// histograms with deterministic snapshots.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is one point-in-time dump of a registry.
	MetricsSnapshot = obs.Snapshot
	// Tracer records spans and instants against an injected clock and
	// exports Chrome trace_event JSON (Perfetto, chrome://tracing).
	Tracer = obs.Tracer
	// TraceScope addresses one (pid, tid) lane of a Tracer.
	TraceScope = obs.Scope
	// TraceClock is a Tracer's injected time source.
	TraceClock = obs.Clock
	// CampaignObs bundles the sinks CampaignOptions.Obs threads through
	// the runtime into the solvers: campaign/attempt/solver spans land in
	// the tracer, the runtime and solver-work counters in the registry.
	CampaignObs = core.ObsConfig
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer returns a tracer on the given clock (nil selects the wall
// clock; obs.StepClock gives deterministic replay traces).
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
	// ResultCacheStats is a point-in-time hit/miss/eviction census.
	ResultCacheStats = cache.Stats
	// CacheKey is a built content address.
	CacheKey = cache.Key
	// CacheKeyBuilder accumulates named fields into a canonical CacheKey.
	CacheKeyBuilder = cache.KeyBuilder
)

// NewResultCache opens (or creates) a result store. The zero Config is a
// memory-only store with the default budget.
func NewResultCache(cfg ResultCacheConfig) (*ResultCache, error) { return cache.New(cfg) }

// NewCacheKey starts a canonical key in the given namespace; bump the
// namespace version whenever the encoded value layout changes.
func NewCacheKey(namespace string) *CacheKeyBuilder { return cache.NewKey(namespace) }

// Feynman-Hellmann campaigns over the cache: the workflow layer caches
// propagators (not just correlators), so adding a new current insertion
// to an already-measured ensemble reuses every base propagator.
type (
	// FHInsertion names one current insertion and its spin structure.
	FHInsertion = workflow.Insertion
	// FHPipelineConfig is the campaign spec an FH campaign embeds: the
	// same type as RealPipelineConfig.
	FHPipelineConfig = workflow.RealConfig
	// FHCampaignConfig is a real campaign plus its insertion list.
	FHCampaignConfig = workflow.FHCampaignConfig
	// FHCampaignResult holds per-insertion FH correlators and the solve
	// counts that show what the cache saved.
	FHCampaignResult = workflow.FHCampaignResult
)

// DefaultFHPipelineConfig returns a laptop-scale FH campaign spec.
func DefaultFHPipelineConfig() FHPipelineConfig { return workflow.DefaultRealConfig() }

// RunFHCampaign measures every insertion on every configuration through
// the propagator cache; base propagators are solved once per
// configuration and shared across insertions.
func RunFHCampaign(ctx context.Context, cfg FHCampaignConfig, store *ResultCache) (*FHCampaignResult, error) {
	return workflow.RunFHCampaign(ctx, cfg, store)
}

// Workflow and I/O.
type (
	// WorkflowBudget is the propagator/contraction/IO time split.
	WorkflowBudget = workflow.Budget
	// HFile is the hierarchical I/O container (HDF5 stand-in).
	HFile = hio.File
)

// NewHFile returns an empty I/O container.
func NewHFile() *HFile { return hio.New() }

// LoadHFile reads a container from disk.
func LoadHFile(path string) (*HFile, error) { return hio.Load(path) }

// LoadGauge reads a configuration saved with GaugeField.Save.
func LoadGauge(g *hio.Group, name string) (*GaugeField, error) { return gauge.Load(g, name) }

// ModelWorkflow evaluates the production-scale Fig. 2 budget.
func ModelWorkflow() (*workflow.ModelResult, error) {
	return workflow.Model(workflow.DefaultModelConfig())
}

// Experiments.

// ExperimentResult is a rendered table or figure.
type ExperimentResult = figures.Result

// Experiments lists every reproducible table and figure.
func Experiments() []string { return figures.Names() }

// Experiment regenerates one table or figure of the paper; quick trades
// statistics for speed.
func Experiment(name string, quick bool) (ExperimentResult, error) {
	return figures.Run(name, quick)
}

// Gamma matrices and spin structures for the facade's correlator calls.

// SpinMatrix is a dense 4x4 spin matrix in the DeGrand-Rossi basis.
type SpinMatrix = linalg.SpinMatrix

// GammaMatrix returns gamma_mu (0..3 = x,y,z,t; 4 = gamma_5).
func GammaMatrix(mu int) SpinMatrix { return linalg.Gamma(mu) }

// AxialCurrentGamma returns gamma_z gamma_5, the gA insertion.
func AxialCurrentGamma() SpinMatrix { return linalg.AxialGamma() }

// TensorCurrentGamma returns sigma_xy, the gT insertion.
func TensorCurrentGamma() SpinMatrix { return linalg.TensorGamma() }

// NERSC-format gauge I/O (the community archive format).

// WriteNERSC serializes a configuration in NERSC archive format.
func WriteNERSC(f *GaugeField, w io.Writer) error { return f.WriteNERSC(w) }

// ReadNERSC parses a NERSC archive configuration with checksum,
// plaquette and link-trace validation.
func ReadNERSC(r io.Reader) (*GaugeField, error) { return gauge.ReadNERSC(r) }
