// Package cluster is a deterministic discrete-event simulator of a
// GPU-dense supercomputer allocation, the substrate on which the paper's
// job-management experiments run: thousands of intermediate-sized tasks
// (propagator solves needing GPUs, contractions needing only CPUs) are
// dispatched onto nodes by a pluggable scheduling policy, and the
// simulator accounts utilization, idle time, fragmentation and makespan.
// Nodes carry per-node performance jitter (real nodes differ, which is
// what makes naive bundling waste 20-25% of the allocation) and tasks
// placed on shared or scattered nodes can run at a penalty.
package cluster

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"femtoverse/internal/fault"
)

const (
	// NetRetrySeconds prices one recovered per-frame network fault (drop,
	// delay, corruption): a handful of capped jittered backoff rounds plus
	// the retransmission itself.
	NetRetrySeconds = 1.0
	// PartitionRecoverySeconds prices one NetPartition recovery: the
	// heartbeat window that converts silence into a declared death plus
	// restoring the lost rank onto a respawned process. mpijm's
	// TestRankRecoverySeconds derives the same figure from its lump model
	// and pins the two equal.
	PartitionRecoverySeconds = 45.0
)

// TaskKind distinguishes GPU solves from CPU-only contractions.
type TaskKind int

const (
	// GPUTask occupies whole GPUs (propagator solves).
	GPUTask TaskKind = iota
	// CPUTask occupies CPU slots only (tensor contractions).
	CPUTask
)

// Task is one schedulable unit of work.
type Task struct {
	ID      int
	Name    string
	Kind    TaskKind
	GPUs    int     // total GPUs required (GPU tasks)
	CPUs    int     // CPU slots required (CPU tasks; GPU tasks use 1/GPU)
	Seconds float64 // nominal duration on speed-1.0 nodes
	// TFlops is the task's nominal compute rate, used by the sustained
	// performance accounting of the weak-scaling figures.
	TFlops float64
	// DependsOn lists task IDs that must complete before this task may
	// start (contractions depend on the propagators they consume).
	DependsOn []int
	// ArrivalSeconds is when the task becomes visible to the scheduler:
	// before that instant it is invisible to PendingIDs, as if it had not
	// been submitted yet. Bursty multi-tenant workloads are modelled by
	// staggering arrivals; 0 (the default) means available from the
	// allocation's start.
	ArrivalSeconds float64
}

// Config describes the simulated allocation.
type Config struct {
	Nodes           int
	GPUsPerNode     int
	CPUSlotsPerNode int
	// JitterSigma is the standard deviation of per-node speed (mean 1).
	JitterSigma float64
	// SlowNodeFrac nodes run at SlowFactor speed (flaky hardware tail).
	SlowNodeFrac float64
	SlowFactor   float64
	Seed         int64
	// Fault is the deterministic chaos plan shared with the live runtime
	// (internal/fault): draws are keyed by task identity and attempt, so
	// the injected fault sequence is a property of the plan, not of the
	// scheduling policy. Transient, Panic, Hang and Corrupt faults kill
	// only the drawing execution; DomainLoss additionally takes down every
	// running task in the same failure domain. The network kinds (NetDrop,
	// NetDelay, NetCorrupt, NetPartition) are the simulated twin of the
	// live wire layer's chaos: they never kill a task - the halo runtime
	// detects and recovers them (resend after backoff, checksum discard,
	// heartbeat timeout plus rank respawn) - so the simulator books the
	// recovery latency (NetRetrySeconds, PartitionRecoverySeconds) against
	// the report instead. When Fault.Seed is zero the plan is seeded from
	// Seed so distinct allocations draw distinct faults by default.
	Fault fault.Plan
	// MaxRetries bounds re-executions per task (default 5 when failures
	// are enabled).
	MaxRetries int
	// AllocationSeconds bounds the batch allocation's wall clock. When
	// positive, the allocation expires at that instant: running tasks are
	// killed and charged as lost work, still-pending tasks are refused,
	// and the report records the waste. 0 means unbounded (the historical
	// behaviour).
	AllocationSeconds float64
	// AdmissionControl enables METAQ's "don't start what you can't
	// finish" rule: policies consult Sim.Admits and skip tasks whose
	// nominal duration plus launch overhead exceeds the remaining
	// allocation, so the allocation ends with refused work instead of
	// half-finished, discarded work.
	AdmissionControl bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.GPUsPerNode < 0 || c.CPUSlotsPerNode < 0 {
		return fmt.Errorf("cluster: bad shape %+v", c)
	}
	if c.SlowFactor < 0 || c.SlowFactor > 1 {
		return fmt.Errorf("cluster: SlowFactor %g outside [0,1]", c.SlowFactor)
	}
	if err := c.Fault.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if c.AllocationSeconds < 0 {
		return fmt.Errorf("cluster: negative AllocationSeconds %g", c.AllocationSeconds)
	}
	return nil
}

// faultPlan resolves the effective chaos plan: an unset seed defaults to
// the allocation seed's failure stream.
func (c Config) faultPlan() fault.Plan {
	p := c.Fault
	if p.Seed == 0 {
		p.Seed = c.Seed + 0x5eed
	}
	return p
}

// Start is a policy's instruction to begin a task now.
type Start struct {
	TaskID int
	// Nodes lists the node IDs used. For GPU tasks every listed node
	// contributes GPUsPerNodeUsed GPUs; for CPU tasks one node is used.
	Nodes []int
	// GPUsPerNodeUsed is how many GPUs per node the task occupies
	// (0 means all of the node's GPUs).
	GPUsPerNodeUsed int
	// SpeedPenalty multiplies the task's effective speed (<= 1);
	// fragmentation and shared-node placements are modelled with it.
	SpeedPenalty float64
	// Overhead is added launch cost in seconds (mpirun vs spawn).
	Overhead float64
	// Exclusive makes a CPU task occupy its node entirely (GPUs
	// included): schedulers that cannot safely overlay executables on a
	// node - METAQ and naive bundling - must set it, which is exactly the
	// resource mpi_jm's co-scheduling recovers.
	Exclusive bool
}

// Policy is a scheduling strategy. Dispatch inspects the simulator state
// and returns the set of tasks to start at the current time; it is called
// again whenever resources change. Startup returns the time before the
// first dispatch (job launch / lump connection).
type Policy interface {
	Name() string
	Startup(cfg Config) float64
	Dispatch(s *Sim) []Start
}

// FailureDomain is an optional Policy extension: when a task fails, every
// running task in the same domain dies with it. mpi_jm implements it with
// the lump index, reproducing the paper's observation that an MPI_Abort
// in a disconnected spawned job "still brings the entire lump down (in
// violation of the MPI standard)". A negative domain means isolation.
type FailureDomain interface {
	DomainOf(cfg Config, nodes []int) int
}

// TaskStat records one task execution attempt.
type TaskStat struct {
	Task      Task
	Start     float64
	End       float64
	Speed     float64 // effective speed incl. node jitter and penalties
	Nodes     []int
	Scattered bool // placed on non-contiguous nodes
	// Failed marks an execution that died (its own failure draw or a
	// failure-domain casualty) and was re-queued.
	Failed bool
}

// Report summarises a simulation.
type Report struct {
	Policy         string
	Makespan       float64 // time from t=0 (incl. startup) to last completion
	StartupSeconds float64
	GPUBusy        float64 // integrated busy GPU-seconds
	CPUBusy        float64 // integrated busy CPU-slot-seconds
	GPUUtil        float64 // GPUBusy / (totalGPUs * (Makespan-Startup))
	TasksDone      int
	PerTask        []TaskStat
	// SustainedTFlops is the time-averaged aggregate compute rate over
	// the busy window: sum(task TFlops x duration) / (Makespan-Startup).
	SustainedTFlops float64
	// Failures counts failed executions; WastedGPUSeconds integrates the
	// GPU time those executions burned before dying.
	Failures         int
	WastedGPUSeconds float64
	// Faults breaks the injected failures down by kind. Failure-domain
	// casualties are not faults - they are collateral of a DomainLoss -
	// so Failures >= Faults.Total() whenever domains are in play.
	Faults fault.Counts
	// NetRecoverySeconds integrates the simulated latency of wire-level
	// fault recovery: resend/backoff for drops and corruptions, the
	// heartbeat-plus-respawn window for partitions. These faults never
	// fail a task (Faults tallies them, Failures does not).
	NetRecoverySeconds float64
	// Expired reports that the allocation ended before the workload did -
	// the wall clock ran out or a Preempt fault reclaimed the nodes.
	Expired bool
	// Refused counts tasks never started: skipped by admission control
	// or still pending when the allocation expired. Refused work is left
	// for the next allocation, not failed.
	Refused int
	// StrandedTasks counts running tasks killed at expiry, and
	// LostGPUSeconds integrates the GPU time their unfinished executions
	// burned - the end-of-allocation waste METAQ's admission rule exists
	// to eliminate.
	StrandedTasks  int
	LostGPUSeconds float64
}

// IdleFraction returns 1 - GPUUtil, the paper's bundling-waste metric.
func (r Report) IdleFraction() float64 { return 1 - r.GPUUtil }

type nodeState struct {
	gpusFree int
	cpusFree int
	speed    float64
}

type event struct {
	time float64
	seq  int
	task int // index into sim.stats; -1 marks a task-arrival event
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Sim is the simulator state exposed to policies.
type Sim struct {
	cfg     Config
	nodes   []nodeState
	pending map[int]Task // by task ID
	order   []int        // pending IDs in submission order
	now     float64
	events  eventHeap
	seq     int
	stats   []TaskStat
	holds   map[int][]hold // stat index -> resource holds

	completed map[int]bool // task IDs that finished successfully
	retries   map[int]int  // task ID -> failed executions so far
	canceled  map[int]bool // stat indices whose events are tombstoned
	domains   map[int]int  // running stat index -> failure domain
	injector  *fault.Injector
	injKeys   map[int]int // task ID -> materialized executions so far
	domainFn  func(nodes []int) int
}

type hold struct {
	node int
	gpus int
	cpus int
}

// Config returns the simulated allocation shape.
func (s *Sim) Config() Config { return s.cfg }

// PendingIDs returns the unscheduled task IDs whose dependencies have all
// completed and whose arrival time has passed, in submission order.
func (s *Sim) PendingIDs() []int {
	out := make([]int, 0, len(s.order))
	for _, id := range s.order {
		t, ok := s.pending[id]
		if !ok {
			continue
		}
		if t.ArrivalSeconds > s.now {
			continue
		}
		ready := true
		for _, dep := range t.DependsOn {
			if !s.completed[dep] {
				ready = false
				break
			}
		}
		if ready {
			out = append(out, id)
		}
	}
	return out
}

// PendingTask returns a pending task by ID.
func (s *Sim) PendingTask(id int) (Task, bool) {
	t, ok := s.pending[id]
	return t, ok
}

// RunningCount returns the number of in-flight tasks.
func (s *Sim) RunningCount() int { return len(s.domains) }

// RemainingSeconds returns the wall clock left in the allocation;
// +Inf when the allocation is unbounded.
func (s *Sim) RemainingSeconds() float64 {
	if s.cfg.AllocationSeconds <= 0 {
		return math.Inf(1)
	}
	rem := s.cfg.AllocationSeconds - s.now
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Admits is the allocation's admission rule, shared by every policy so
// the simulator and the live runtime can be held to the same decisions:
// a task may start only if its nominal duration plus launch overhead
// fits in the remaining allocation. Always true when admission control
// is disabled.
func (s *Sim) Admits(t Task, overhead float64) bool {
	if !s.cfg.AdmissionControl {
		return true
	}
	return t.Seconds+overhead <= s.RemainingSeconds()
}

// NodeCPUsFree returns the free CPU-slot count of a node.
func (s *Sim) NodeCPUsFree(id int) int { return s.nodes[id].cpusFree }

// FreeWholeNodes returns IDs of nodes with every GPU free, ascending.
func (s *Sim) FreeWholeNodes() []int {
	var out []int
	for i, n := range s.nodes {
		if n.gpusFree == s.cfg.GPUsPerNode {
			out = append(out, i)
		}
	}
	return out
}

// contiguous reports whether the sorted node list is a contiguous run.
func contiguous(nodes []int) bool {
	for i := 1; i < len(nodes); i++ {
		if nodes[i] != nodes[i-1]+1 {
			return false
		}
	}
	return true
}

// Run executes the tasks under the policy and returns the report.
func Run(cfg Config, tasks []Task, p Policy) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	injector, err := fault.NewInjector(cfg.faultPlan())
	if err != nil {
		return Report{}, fmt.Errorf("cluster: %w", err)
	}
	s := &Sim{
		cfg:       cfg,
		nodes:     make([]nodeState, cfg.Nodes),
		pending:   make(map[int]Task, len(tasks)),
		holds:     make(map[int][]hold),
		completed: make(map[int]bool, len(tasks)),
		retries:   make(map[int]int),
		canceled:  make(map[int]bool),
		domains:   make(map[int]int),
		injector:  injector,
		injKeys:   make(map[int]int),
	}
	if fd, ok := p.(FailureDomain); ok {
		s.domainFn = func(nodes []int) int { return fd.DomainOf(cfg, nodes) }
	}
	maxRetries := cfg.MaxRetries
	if injector != nil && maxRetries <= 0 {
		maxRetries = 5
	}
	for i := range s.nodes {
		speed := 1 + cfg.JitterSigma*rng.NormFloat64()
		if speed < 0.5 {
			speed = 0.5
		}
		if cfg.SlowNodeFrac > 0 && rng.Float64() < cfg.SlowNodeFrac {
			speed *= cfg.SlowFactor
		}
		s.nodes[i] = nodeState{gpusFree: cfg.GPUsPerNode, cpusFree: cfg.CPUSlotsPerNode, speed: speed}
	}
	for _, t := range tasks {
		if _, dup := s.pending[t.ID]; dup {
			return Report{}, fmt.Errorf("cluster: duplicate task ID %d", t.ID)
		}
		if t.ArrivalSeconds < 0 || math.IsNaN(t.ArrivalSeconds) {
			return Report{}, fmt.Errorf("cluster: task %d arrival %g", t.ID, t.ArrivalSeconds)
		}
		s.pending[t.ID] = t
		s.order = append(s.order, t.ID)
	}
	for _, t := range tasks {
		for _, dep := range t.DependsOn {
			if _, ok := s.pending[dep]; !ok {
				return Report{}, fmt.Errorf("cluster: task %d depends on unknown task %d", t.ID, dep)
			}
			if dep == t.ID {
				return Report{}, fmt.Errorf("cluster: task %d depends on itself", t.ID)
			}
		}
	}

	startup := p.Startup(cfg)
	s.now = startup
	rep := Report{Policy: p.Name(), StartupSeconds: startup}

	// Arrivals later than startup get wake-up events so the policy is
	// re-consulted the instant new work becomes visible; earlier arrivals
	// are already visible at the first dispatch (the clock never runs
	// backwards from startup).
	for _, t := range tasks {
		if t.ArrivalSeconds > startup {
			heap.Push(&s.events, event{time: t.ArrivalSeconds, seq: s.seq, task: -1})
			s.seq++
		}
	}

	dispatch := func() error {
		for {
			starts := p.Dispatch(s)
			if len(starts) == 0 {
				return nil
			}
			for _, st := range starts {
				if err := s.apply(st); err != nil {
					return err
				}
			}
		}
	}
	if err := dispatch(); err != nil {
		return Report{}, err
	}
	// release frees a running execution's resources and closes its stat.
	release := func(idx int) float64 {
		stat := &s.stats[idx]
		stat.End = s.now
		for _, h := range s.holds[idx] {
			s.nodes[h.node].gpusFree += h.gpus
			s.nodes[h.node].cpusFree += h.cpus
		}
		delete(s.holds, idx)
		delete(s.domains, idx)
		dur := stat.End - stat.Start
		rep.GPUBusy += float64(stat.Task.GPUs) * dur
		if stat.Task.Kind == CPUTask {
			rep.CPUBusy += float64(stat.Task.CPUs) * dur
		}
		return dur
	}
	// fail records a failed execution and re-queues its task.
	fail := func(idx int, dur float64) error {
		stat := &s.stats[idx]
		stat.Failed = true
		rep.Failures++
		rep.WastedGPUSeconds += float64(stat.Task.GPUs) * dur
		id := stat.Task.ID
		s.retries[id]++
		if s.retries[id] > maxRetries {
			return fmt.Errorf("cluster: task %d failed %d times, giving up", id, s.retries[id])
		}
		s.pending[id] = stat.Task
		return nil
	}
	// expire ends the allocation at s.now: every running task is killed
	// and its unfinished execution charged as lost work, every pending
	// task is refused (left for the next allocation), and no further
	// events are processed.
	expire := func() {
		rep.Expired = true
		var victims []int
		for idx := range s.domains {
			victims = append(victims, idx)
		}
		sort.Ints(victims)
		for _, idx := range victims {
			s.canceled[idx] = true
			stat := &s.stats[idx]
			dur := release(idx)
			stat.Failed = true
			rep.StrandedTasks++
			rep.LostGPUSeconds += float64(stat.Task.GPUs) * dur
		}
		rep.Refused += len(s.pending)
		s.pending = map[int]Task{}
	}

	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(event)
		if ev.task >= 0 && s.canceled[ev.task] {
			continue
		}
		if cfg.AllocationSeconds > 0 && ev.time > cfg.AllocationSeconds {
			// The batch system reclaims the nodes before this completion:
			// the allocation clock, not the workload, ends the run.
			s.now = cfg.AllocationSeconds
			expire()
			break
		}
		s.now = ev.time
		if ev.task < 0 {
			// A task arrival: nothing completes, but the policy sees new
			// pending work.
			if err := dispatch(); err != nil {
				return Report{}, err
			}
			continue
		}
		stat := &s.stats[ev.task]
		dur := release(ev.task)

		// The fault draw is keyed by (task, materialized execution), never
		// by event order: reordering completions under a different policy
		// or allocation shape cannot change which executions die.
		var fk fault.Kind
		if s.injector != nil {
			s.injKeys[stat.Task.ID]++
			fk = s.injector.Draw(stat.Task.ID, s.injKeys[stat.Task.ID])
		}
		if fk.IsNet() {
			// The wire layer's fault tolerance absorbs network chaos: a
			// dropped or corrupted frame is retransmitted after backoff, a
			// partition is converted into a declared death by heartbeat
			// timeout and healed by checkpoint restore onto a respawned
			// rank. The task completes - no failure, no re-run - and the
			// recovery latency is booked against the report.
			rep.Faults.Add(fk)
			penalty := NetRetrySeconds
			if fk == fault.NetPartition {
				penalty = PartitionRecoverySeconds
			}
			rep.NetRecoverySeconds += penalty
			rep.SustainedTFlops += stat.Task.TFlops * dur
			rep.TasksDone++
			s.completed[stat.Task.ID] = true
			if err := dispatch(); err != nil {
				return Report{}, err
			}
			continue
		}
		if fk == fault.Preempt {
			// Preemption is an allocation-level event, not a task failure:
			// the drawing execution completes normally, then the batch
			// system reclaims the nodes (walltime cut, higher-priority
			// job) and the allocation ends where it stands.
			rep.Faults.Add(fk)
			rep.SustainedTFlops += stat.Task.TFlops * dur
			rep.TasksDone++
			s.completed[stat.Task.ID] = true
			expire()
			break
		}
		if fk != fault.None {
			rep.Faults.Add(fk)
			// Only a DomainLoss reaches beyond its own execution; the
			// other kinds (transient error, panic, hang past the
			// watchdog, corrupted result) die alone.
			domain := -1
			if fk == fault.DomainLoss && s.domainFn != nil {
				domain = s.domainFn(stat.Nodes)
			}
			if err := fail(ev.task, dur); err != nil {
				return Report{}, err
			}
			// Failure-domain casualties: every running task in the same
			// domain dies too (the paper's MPI_Abort-kills-the-lump).
			if domain >= 0 {
				var victims []int
				for idx, d := range s.domains {
					if d == domain {
						victims = append(victims, idx)
					}
				}
				sort.Ints(victims)
				for _, idx := range victims {
					s.canceled[idx] = true
					vdur := release(idx)
					if err := fail(idx, vdur); err != nil {
						return Report{}, err
					}
				}
			}
			if err := dispatch(); err != nil {
				return Report{}, err
			}
			continue
		}

		rep.SustainedTFlops += stat.Task.TFlops * dur
		rep.TasksDone++
		s.completed[stat.Task.ID] = true
		if err := dispatch(); err != nil {
			return Report{}, err
		}
	}
	if len(s.pending) > 0 {
		if cfg.AllocationSeconds <= 0 {
			return Report{}, fmt.Errorf("cluster: %s left %d tasks unscheduled", p.Name(), len(s.pending))
		}
		// A bounded allocation legitimately ends with unstarted work:
		// admission control refused it (or its dependencies were refused)
		// and it is left for the next allocation.
		rep.Refused += len(s.pending)
	}
	rep.Makespan = s.now
	rep.PerTask = s.stats
	window := rep.Makespan - rep.StartupSeconds
	if window > 0 {
		totalGPUs := float64(cfg.Nodes * cfg.GPUsPerNode)
		if totalGPUs > 0 {
			rep.GPUUtil = rep.GPUBusy / (totalGPUs * window)
		}
		rep.SustainedTFlops /= window
	}
	return rep, nil
}

// apply validates and books one Start.
func (s *Sim) apply(st Start) error {
	t, ok := s.pending[st.TaskID]
	if !ok {
		return fmt.Errorf("cluster: start of unknown/already-started task %d", st.TaskID)
	}
	if st.SpeedPenalty <= 0 || st.SpeedPenalty > 1 {
		return fmt.Errorf("cluster: task %d speed penalty %g outside (0,1]", t.ID, st.SpeedPenalty)
	}
	nodes := append([]int(nil), st.Nodes...)
	sort.Ints(nodes)
	var holds []hold
	slowest := 1e18
	switch t.Kind {
	case GPUTask:
		per := st.GPUsPerNodeUsed
		if per <= 0 {
			per = s.cfg.GPUsPerNode
		}
		if per*len(nodes) != t.GPUs {
			return fmt.Errorf("cluster: task %d needs %d GPUs, placement provides %d nodes x %d",
				t.ID, t.GPUs, len(nodes), per)
		}
		for _, n := range nodes {
			if n < 0 || n >= s.cfg.Nodes {
				return fmt.Errorf("cluster: node %d out of range", n)
			}
			if s.nodes[n].gpusFree < per || s.nodes[n].cpusFree < per {
				return fmt.Errorf("cluster: double-booked node %d for task %d", n, t.ID)
			}
			s.nodes[n].gpusFree -= per
			s.nodes[n].cpusFree -= per // one host core per GPU
			holds = append(holds, hold{node: n, gpus: per, cpus: per})
			if s.nodes[n].speed < slowest {
				slowest = s.nodes[n].speed
			}
		}
	case CPUTask:
		if len(nodes) != 1 {
			return fmt.Errorf("cluster: CPU task %d must use exactly one node", t.ID)
		}
		n := nodes[0]
		if s.nodes[n].cpusFree < t.CPUs {
			return fmt.Errorf("cluster: node %d lacks %d CPU slots for task %d", n, t.CPUs, t.ID)
		}
		cpus := t.CPUs
		gpus := 0
		if st.Exclusive {
			if s.nodes[n].gpusFree != s.cfg.GPUsPerNode {
				return fmt.Errorf("cluster: exclusive CPU task %d needs an idle node", t.ID)
			}
			gpus = s.cfg.GPUsPerNode
			cpus = s.nodes[n].cpusFree
		}
		s.nodes[n].cpusFree -= cpus
		s.nodes[n].gpusFree -= gpus
		holds = append(holds, hold{node: n, cpus: cpus, gpus: gpus})
		slowest = s.nodes[n].speed
	}
	speed := slowest * st.SpeedPenalty
	dur := t.Seconds/speed + st.Overhead
	idx := len(s.stats)
	s.stats = append(s.stats, TaskStat{
		Task:      t,
		Start:     s.now,
		Speed:     speed,
		Nodes:     nodes,
		Scattered: !contiguous(nodes),
	})
	s.holds[idx] = holds
	domain := -1
	if s.domainFn != nil {
		domain = s.domainFn(nodes)
	}
	s.domains[idx] = domain
	heap.Push(&s.events, event{time: s.now + dur, seq: s.seq, task: idx})
	s.seq++
	delete(s.pending, st.TaskID)
	return nil
}
