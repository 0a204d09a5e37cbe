package cluster

import (
	"testing"

	"femtoverse/internal/fault"
)

func TestDependenciesGateScheduling(t *testing.T) {
	cfg := Config{Nodes: 8, GPUsPerNode: 4, CPUSlotsPerNode: 40, Seed: 1}
	tasks := []Task{
		{ID: 0, Kind: GPUTask, GPUs: 16, Seconds: 100},
		{ID: 1, Kind: CPUTask, CPUs: 8, Seconds: 50, DependsOn: []int{0}},
		{ID: 2, Kind: CPUTask, CPUs: 8, Seconds: 50, DependsOn: []int{0, 1}},
	}
	rep, err := Run(cfg, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksDone != 3 {
		t.Fatalf("done %d", rep.TasksDone)
	}
	var end0, start1, end1, start2 float64
	for _, st := range rep.PerTask {
		switch st.Task.ID {
		case 0:
			end0 = st.End
		case 1:
			start1, end1 = st.Start, st.End
		case 2:
			start2 = st.Start
		}
	}
	if start1 < end0 {
		t.Fatalf("task 1 started at %v before its dependency finished at %v", start1, end0)
	}
	if start2 < end1 {
		t.Fatalf("task 2 started before task 1 finished")
	}
}

func TestDanglingDependencyRejected(t *testing.T) {
	cfg := Config{Nodes: 2, GPUsPerNode: 4, CPUSlotsPerNode: 8, Seed: 1}
	tasks := []Task{{ID: 0, Kind: GPUTask, GPUs: 4, Seconds: 1, DependsOn: []int{99}}}
	if _, err := Run(cfg, tasks, NaiveBundle{}); err == nil {
		t.Fatal("dangling dependency accepted")
	}
	tasks = []Task{{ID: 0, Kind: GPUTask, GPUs: 4, Seconds: 1, DependsOn: []int{0}}}
	if _, err := Run(cfg, tasks, NaiveBundle{}); err == nil {
		t.Fatal("self dependency accepted")
	}
}

func TestFailuresRetryAndAccountWaste(t *testing.T) {
	cfg := Config{
		Nodes: 8, GPUsPerNode: 4, CPUSlotsPerNode: 40, Seed: 3,
		Fault: fault.Plan{DomainLoss: 0.3}, MaxRetries: 50,
	}
	tasks := solveTasks(16, 500, 0.1, 4)
	rep, err := Run(cfg, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksDone != 16 {
		t.Fatalf("done %d", rep.TasksDone)
	}
	if rep.Failures == 0 {
		t.Fatal("30% failure rate produced no failures")
	}
	if rep.WastedGPUSeconds <= 0 {
		t.Fatal("no wasted time accounted")
	}
	// Every failed execution appears in PerTask with the flag set.
	flagged := 0
	for _, st := range rep.PerTask {
		if st.Failed {
			flagged++
		}
	}
	if flagged != rep.Failures {
		t.Fatalf("flags %d vs failures %d", flagged, rep.Failures)
	}
	// Total executions = completions + failures.
	if len(rep.PerTask) != rep.TasksDone+rep.Failures {
		t.Fatalf("executions %d vs %d + %d", len(rep.PerTask), rep.TasksDone, rep.Failures)
	}
}

func TestRetryLimitEnforced(t *testing.T) {
	cfg := Config{
		Nodes: 2, GPUsPerNode: 4, CPUSlotsPerNode: 8, Seed: 5,
		Fault: fault.Plan{DomainLoss: 0.999}, MaxRetries: 3,
	}
	tasks := []Task{{ID: 0, Kind: GPUTask, GPUs: 8, Seconds: 10}}
	if _, err := Run(cfg, tasks, NaiveBundle{}); err == nil {
		t.Fatal("hopeless task did not error out")
	}
}

// domainPolicy wraps NaiveBundle with a fixed failure domain so the blast
// radius machinery can be tested without mpi_jm.
type domainPolicy struct {
	NaiveBundle
	domainSize int
}

func (d domainPolicy) DomainOf(cfg Config, nodes []int) int {
	if len(nodes) == 0 {
		return -1
	}
	return nodes[0] / d.domainSize
}

func TestFailureDomainTakesDownNeighbours(t *testing.T) {
	// 4 concurrent 2-node tasks in one 8-node domain: any failure kills
	// the other running tasks too, so failures come in bursts.
	cfgIso := Config{
		Nodes: 8, GPUsPerNode: 4, CPUSlotsPerNode: 40, Seed: 7,
		Fault: fault.Plan{DomainLoss: 0.25}, MaxRetries: 100,
	}
	tasks := solveTasks(24, 500, 0.1, 8)
	for i := range tasks {
		tasks[i].GPUs = 8 // 2-node jobs
	}
	iso, err := Run(cfgIso, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	dom, err := Run(cfgIso, tasks, domainPolicy{domainSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dom.Failures <= iso.Failures {
		t.Fatalf("domain failures %d should exceed isolated %d (casualties)",
			dom.Failures, iso.Failures)
	}
	if dom.WastedGPUSeconds <= iso.WastedGPUSeconds {
		t.Fatalf("domain waste %v should exceed isolated %v",
			dom.WastedGPUSeconds, iso.WastedGPUSeconds)
	}
	if dom.TasksDone != 24 || iso.TasksDone != 24 {
		t.Fatal("tasks lost")
	}
}

// TestFaultTaxonomyOnlyDomainLossPropagates: under a full chaos plan,
// isolated kinds (transient, panic, hang, corrupt) fail exactly one
// execution each, so Failures == Faults.Total() with no domains and
// exceeds it only through DomainLoss casualties when a domain policy is
// in play.
func TestFaultTaxonomyOnlyDomainLossPropagates(t *testing.T) {
	plan := fault.Plan{
		Seed: 99, Transient: 0.1, Panic: 0.05, Hang: 0.05,
		Corrupt: 0.05, DomainLoss: 0.1, MaxInjections: 5,
	}
	cfg := Config{
		Nodes: 8, GPUsPerNode: 4, CPUSlotsPerNode: 40, Seed: 7,
		Fault: plan, MaxRetries: 100,
	}
	tasks := solveTasks(24, 500, 0.1, 8)
	for i := range tasks {
		tasks[i].GPUs = 8 // 2-node jobs: four run concurrently per domain
	}
	iso, err := Run(cfg, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	if iso.Faults.Total() == 0 {
		t.Fatal("chaos plan injected nothing")
	}
	if iso.Failures != iso.Faults.Total() {
		t.Fatalf("isolated run: %d failures but %d faults (phantom casualties)",
			iso.Failures, iso.Faults.Total())
	}
	dom, err := Run(cfg, tasks, domainPolicy{domainSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dom.Failures < dom.Faults.Total() {
		t.Fatalf("domain run: %d failures < %d faults", dom.Failures, dom.Faults.Total())
	}
	casualties := dom.Failures - dom.Faults.Total()
	if dom.Faults.DomainLoss > 0 && casualties == 0 {
		t.Fatal("domain losses fired with concurrent co-domain tasks but produced no casualties")
	}
	if dom.TasksDone != 24 || iso.TasksDone != 24 {
		t.Fatal("tasks lost")
	}
}

// TestFaultSequenceIsPolicyIndependent: the injected fault counts are a
// property of (plan, task identity), not of who schedules what where -
// two very different policies see the identical per-kind breakdown under
// an isolated-kinds plan.
func TestFaultSequenceIsPolicyIndependent(t *testing.T) {
	plan := fault.Plan{Seed: 4, Transient: 0.25, Corrupt: 0.1, MaxInjections: 4}
	cfg := Config{
		Nodes: 8, GPUsPerNode: 4, CPUSlotsPerNode: 40, Seed: 7,
		Fault: plan, MaxRetries: 100,
	}
	tasks := solveTasks(24, 500, 0.1, 8)
	a, err := Run(cfg, tasks, NaiveBundle{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tasks, domainPolicy{domainSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Faults != b.Faults {
		t.Fatalf("fault draws depended on the policy: %v vs %v", a.Faults, b.Faults)
	}
	if a.Failures != b.Failures {
		t.Fatalf("isolated-kind failure counts depended on the policy: %d vs %d",
			a.Failures, b.Failures)
	}
}
