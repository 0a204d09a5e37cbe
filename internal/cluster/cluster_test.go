package cluster

import (
	"math"
	"math/rand"
	"testing"

	"femtoverse/internal/fault"
)

func smallConfig() Config {
	return Config{
		Nodes: 16, GPUsPerNode: 4, CPUSlotsPerNode: 40,
		JitterSigma: 0.03, Seed: 1,
	}
}

// solveTasks builds n 4-node GPU tasks with +-spread% duration variation.
func solveTasks(n int, base, spread float64, seed int64) []Task {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			ID: i, Name: "prop", Kind: GPUTask,
			GPUs:    16,
			Seconds: base * (1 + spread*(2*rng.Float64()-1)),
			TFlops:  28,
		}
	}
	return tasks
}

func TestRunCompletesAllTasks(t *testing.T) {
	cfg := smallConfig()
	tasks := solveTasks(12, 1000, 0.2, 2)
	rep, err := Run(cfg, tasks, NaiveBundle{LaunchOverhead: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksDone != 12 || len(rep.PerTask) != 12 {
		t.Fatalf("done %d", rep.TasksDone)
	}
	if rep.Makespan <= rep.StartupSeconds {
		t.Fatal("makespan not after startup")
	}
	if rep.GPUUtil <= 0 || rep.GPUUtil > 1 {
		t.Fatalf("util %v", rep.GPUUtil)
	}
}

func TestNaiveBundlingWastesTwentyToTwentyFivePercent(t *testing.T) {
	// The paper: "naively bundling tasks ... often caused a 20 to 25%
	// idling inefficiency". Heterogeneous task durations (+-30%) over
	// several bundles on a jittery machine land in that window.
	cfg := Config{Nodes: 64, GPUsPerNode: 4, CPUSlotsPerNode: 40, JitterSigma: 0.05, Seed: 3}
	tasks := solveTasks(64, 2000, 0.3, 4)
	rep, err := Run(cfg, tasks, NaiveBundle{LaunchOverhead: 10})
	if err != nil {
		t.Fatal(err)
	}
	if idle := rep.IdleFraction(); idle < 0.15 || idle > 0.32 {
		t.Fatalf("naive idle fraction %.2f outside the paper's 20-25%% ballpark", idle)
	}
}

func TestResourcesNeverDoubleBooked(t *testing.T) {
	// Overlapping starts on the same node must be rejected by the engine.
	cfg := smallConfig()
	bad := badPolicy{}
	_, err := Run(cfg, solveTasks(2, 100, 0, 5), bad)
	if err == nil {
		t.Fatal("double booking accepted")
	}
}

type badPolicy struct{}

func (badPolicy) Name() string           { return "bad" }
func (badPolicy) Startup(Config) float64 { return 0 }
func (badPolicy) Dispatch(s *Sim) []Start {
	ids := s.PendingIDs()
	if len(ids) < 2 {
		return nil
	}
	nodes := []int{0, 1, 2, 3}
	// Both tasks on the same nodes: must error.
	return []Start{
		{TaskID: ids[0], Nodes: nodes, SpeedPenalty: 1},
		{TaskID: ids[1], Nodes: nodes, SpeedPenalty: 1},
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := smallConfig()
	tasks := solveTasks(10, 500, 0.25, 6)
	r1, err := Run(cfg, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.GPUUtil != r2.GPUUtil {
		t.Fatal("simulation not deterministic")
	}
}

func TestDuplicateTaskIDRejected(t *testing.T) {
	cfg := smallConfig()
	tasks := []Task{{ID: 1, Kind: GPUTask, GPUs: 16, Seconds: 10}, {ID: 1, Kind: GPUTask, GPUs: 16, Seconds: 10}}
	if _, err := Run(cfg, tasks, NaiveBundle{}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestUnplaceableTaskReported(t *testing.T) {
	cfg := smallConfig() // 16 nodes = 64 GPUs
	tasks := []Task{{ID: 0, Kind: GPUTask, GPUs: 1024, Seconds: 10}}
	if _, err := Run(cfg, tasks, NaiveBundle{}); err == nil {
		t.Fatal("oversized task silently dropped")
	}
}

func TestNodeJitterAffectsTaskSpeed(t *testing.T) {
	cfg := Config{Nodes: 32, GPUsPerNode: 4, CPUSlotsPerNode: 40, JitterSigma: 0.08, Seed: 9}
	tasks := solveTasks(8, 1000, 0, 10) // identical nominal durations
	rep, err := Run(cfg, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	speeds := map[float64]bool{}
	for _, st := range rep.PerTask {
		speeds[st.Speed] = true
		if st.Speed <= 0 {
			t.Fatal("non-positive speed")
		}
	}
	if len(speeds) < 2 {
		t.Fatal("jitter produced identical speeds for all placements")
	}
}

func TestSlowNodeTail(t *testing.T) {
	cfg := Config{Nodes: 64, GPUsPerNode: 4, CPUSlotsPerNode: 40,
		JitterSigma: 0.01, SlowNodeFrac: 0.3, SlowFactor: 0.8, Seed: 11}
	tasks := solveTasks(16, 1000, 0, 12)
	rep, err := Run(cfg, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, st := range rep.PerTask {
		if st.Speed < 0.85 {
			slow++
		}
	}
	if slow == 0 {
		t.Fatal("no tasks landed on slow nodes despite 30% slow fraction")
	}
}

func TestMonolithicStartupSuperlinear(t *testing.T) {
	s16 := MonolithicStartupSeconds(16)
	s4224 := MonolithicStartupSeconds(4224)
	if s4224 < 8*60 {
		t.Fatalf("4224-node monolithic startup %v s; should exceed 8 minutes", s4224)
	}
	if s16 > 30 {
		t.Fatalf("16-node startup %v s implausibly slow", s16)
	}
	// Superlinear: doubling the node count more than doubles the
	// size-dependent part of the cost.
	v4096 := MonolithicStartupSeconds(4096) - MonolithicStartupSeconds(1)
	v8192 := MonolithicStartupSeconds(8192) - MonolithicStartupSeconds(1)
	if v8192 <= 2*v4096 {
		t.Fatalf("startup not superlinear: %v vs 2x%v", v8192, v4096)
	}
}

func TestCPUTaskExclusiveVsShared(t *testing.T) {
	cfg := Config{Nodes: 2, GPUsPerNode: 4, CPUSlotsPerNode: 40, Seed: 13}
	tasks := []Task{
		{ID: 0, Kind: GPUTask, GPUs: 4, Seconds: 100},
		{ID: 1, Kind: CPUTask, CPUs: 8, Seconds: 50},
	}
	// sharePolicy puts the GPU task on node 0 and the CPU task on the
	// same node non-exclusively: legal because slots remain.
	rep, err := Run(cfg, tasks, sharePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksDone != 2 {
		t.Fatal("co-scheduled tasks did not finish")
	}
	for _, st := range rep.PerTask {
		if st.Nodes[0] != 0 {
			t.Fatal("placement wrong")
		}
	}
}

type sharePolicy struct{}

func (sharePolicy) Name() string           { return "share" }
func (sharePolicy) Startup(Config) float64 { return 0 }
func (sharePolicy) Dispatch(s *Sim) []Start {
	var out []Start
	for _, id := range s.PendingIDs() {
		tk, _ := s.PendingTask(id)
		if tk.Kind == GPUTask {
			out = append(out, Start{TaskID: id, Nodes: []int{0}, SpeedPenalty: 1})
		} else if s.NodeCPUsFree(0) >= tk.CPUs {
			out = append(out, Start{TaskID: id, Nodes: []int{0}, SpeedPenalty: 1})
		}
	}
	return out
}

func TestSustainedTFlopsAccounting(t *testing.T) {
	cfg := Config{Nodes: 4, GPUsPerNode: 4, CPUSlotsPerNode: 40, Seed: 15}
	// One task at 10 TF for its whole duration: sustained rate over the
	// busy window is close to 10 TF (modulo launch overhead).
	tasks := []Task{{ID: 0, Kind: GPUTask, GPUs: 16, Seconds: 100, TFlops: 10}}
	rep, err := Run(cfg, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.SustainedTFlops-10) > 0.5 {
		t.Fatalf("sustained %v TF, want ~10", rep.SustainedTFlops)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{Nodes: 0}).Validate(); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if err := (Config{Nodes: 1, SlowFactor: 2}).Validate(); err == nil {
		t.Fatal("slow factor > 1 accepted")
	}
}

func TestTimelineRendersLanes(t *testing.T) {
	cfg := smallConfig()
	tasks := solveTasks(8, 500, 0.3, 21)
	rep, err := Run(cfg, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	tl := rep.Timeline(60)
	if tl == "" || tl == "(empty timeline)\n" {
		t.Fatal("no timeline")
	}
	lines := 0
	for _, c := range tl {
		if c == '\n' {
			lines++
		}
	}
	// Header plus at least one lane.
	if lines < 2 {
		t.Fatalf("timeline has %d lines:\n%s", lines, tl)
	}
	// Idle columns exist under naive bundling (that is its pathology).
	if !containsRune(tl, '.') {
		t.Fatal("naive bundling timeline shows no idle time")
	}
	if (Report{}).Timeline(40) != "(empty timeline)\n" {
		t.Fatal("empty report timeline")
	}
}

func containsRune(s string, r rune) bool {
	for _, c := range s {
		if c == r {
			return true
		}
	}
	return false
}

// TestNetFaultsRecoverNotFail pins the simulated twin of the wire layer's
// fault tolerance: network kinds never fail a task - every solve
// completes, the tally lands in Faults (not Failures), and the recovery
// latency is booked in NetRecoverySeconds.
func TestNetFaultsRecoverNotFail(t *testing.T) {
	cfg := smallConfig()
	cfg.Fault = fault.Plan{Seed: 9, NetDrop: 0.2, NetDelay: 0.1, NetCorrupt: 0.2, NetPartition: 0.2}
	tasks := solveTasks(40, 800, 0.2, 11)
	rep, err := Run(cfg, tasks, NaiveBundle{LaunchOverhead: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksDone != 40 {
		t.Fatalf("net faults failed tasks: done %d/40", rep.TasksDone)
	}
	if rep.Failures != 0 {
		t.Fatalf("net faults recorded as failures: %d", rep.Failures)
	}
	netFaults := rep.Faults.NetDrop + rep.Faults.NetDelay + rep.Faults.NetCorrupt + rep.Faults.NetPartition
	if netFaults == 0 {
		t.Fatal("no net faults drawn across 40 executions at 70% total rate")
	}
	if netFaults != rep.Faults.Total() {
		t.Fatalf("non-net faults drawn from a net-only plan: %+v", rep.Faults)
	}
	if rep.NetRecoverySeconds <= 0 {
		t.Fatalf("no recovery latency booked for %d net faults", netFaults)
	}
	// Deterministic: same plan, same draws, same booked latency.
	rep2, err := Run(cfg, tasks, NaiveBundle{LaunchOverhead: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.NetRecoverySeconds != rep.NetRecoverySeconds || rep2.Faults != rep.Faults {
		t.Fatal("net fault accounting not deterministic")
	}
}

// TestPartitionRecoveryPenalty checks the NetPartition price and the
// flat per-frame retry constant for the other net kinds.
func TestPartitionRecoveryPenalty(t *testing.T) {
	cfg := smallConfig()
	cfg.Fault = fault.Plan{Seed: 4, NetPartition: 0.5}
	tasks := solveTasks(30, 500, 0.1, 12)
	rep, err := Run(cfg, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.NetPartition == 0 {
		t.Fatal("no partitions drawn at 50%")
	}
	want := float64(rep.Faults.NetPartition) * PartitionRecoverySeconds
	if rep.NetRecoverySeconds != want {
		t.Fatalf("partition penalty: got %v, want %v", rep.NetRecoverySeconds, want)
	}

	cfg.Fault = fault.Plan{Seed: 4, NetDrop: 0.5}
	rep, err = Run(cfg, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	want = float64(rep.Faults.NetDrop) * NetRetrySeconds
	if rep.NetRecoverySeconds != want {
		t.Fatalf("per-frame retry penalty: got %v, want %v", rep.NetRecoverySeconds, want)
	}
}
