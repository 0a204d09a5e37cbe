package femtoverse

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestFacadeQuickstart exercises the public API exactly the way the
// quickstart example does: build a lattice, solve the Dirac equation,
// contract a pion.
func TestFacadeQuickstart(t *testing.T) {
	g, err := NewLattice(2, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := UnitGauge(g)
	u.FlipTimeBoundary()
	m, err := NewMobius(u, MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	eo, err := NewMobiusEO(m)
	if err != nil {
		t.Fatal(err)
	}
	qs := NewQuarkSolver(eo, SolverParams{Tol: 1e-8, Precision: Single})
	p, err := qs.ComputePoint([4]int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	c := Pion2pt(p, 0)
	if len(c) != 4 {
		t.Fatalf("correlator length %d", len(c))
	}
	for tt, v := range c {
		if v <= 0 {
			t.Fatalf("C(%d) = %v", tt, v)
		}
	}
	eff := EffectiveMass(c)
	if len(eff) != 3 {
		t.Fatal("effective mass length")
	}
}

func TestFacadeDirectSolve(t *testing.T) {
	g, err := NewLattice(2, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := QuenchedEnsemble(g, 1, 5.8, 1, 3, 1)[0]
	m, err := NewMobius(u, MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	eo, err := NewMobiusEO(m)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, eo.Size())
	b[0] = 1
	x, st, err := Solve(eo, b, SolverParams{Tol: 1e-8, Precision: Half})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Precision != Half {
		t.Fatalf("stats %+v", st)
	}
	if len(x) != eo.Size() {
		t.Fatal("solution size")
	}
}

func TestFacadePhysics(t *testing.T) {
	tau, terr := NeutronLifetime(1.2755, 0.012)
	if math.Abs(tau-879.5) > 1.5 || terr <= 0 {
		t.Fatalf("tau = %v +- %v", tau, terr)
	}
}

func TestFacadeMachinesAndModel(t *testing.T) {
	if Sierra().Name != "Sierra" || Titan().GPUsPerNode != 1 {
		t.Fatal("machines")
	}
	pm := NewPerfModel(Sierra())
	pt, err := pm.Solve(Problem{Global: [4]int{48, 48, 48, 64}, Ls: 20}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pt.PctPeak < 19 || pt.PctPeak > 22 {
		t.Fatalf("pct %v", pt.PctPeak)
	}
}

func TestFacadeClusterAndExperiments(t *testing.T) {
	rep, err := SimulateCluster(
		ClusterConfig{Nodes: 8, GPUsPerNode: 4, CPUSlotsPerNode: 40, Seed: 1},
		[]ClusterTask{{ID: 0, Kind: GPUTask, GPUs: 16, Seconds: 100}},
		NewMpiJM(MpiJMParams{LumpNodes: 8, BlockNodes: 4}),
	)
	if err != nil || rep.TasksDone != 1 {
		t.Fatalf("cluster sim: %v %+v", err, rep)
	}
	res, err := Experiment("table1", true)
	if err != nil || res.Render() == "" {
		t.Fatalf("experiment: %v", err)
	}
}

// tinyCampaignSpec is the smallest real campaign the facade doors run.
func tinyCampaignSpec() RealPipelineConfig {
	spec := DefaultRealPipelineConfig()
	spec.Dims = [4]int{2, 2, 2, 4}
	spec.Params.Ls = 2
	spec.ThermSweeps = 2
	spec.GapSweeps = 1
	spec.Tol = 1e-5
	spec.NConfigs = 2
	return spec
}

// TestFacadeWorkflowAndIO drives a journaled campaign through the option
// constructors: CreateCampaignJournal for Journal, NewMetricsRegistry and
// NewTracer for Obs. The journal reopened by OpenCampaignJournal restores
// the campaign bit for bit, and both sinks saw the run.
func TestFacadeWorkflowAndIO(t *testing.T) {
	spec := tinyCampaignSpec()
	path := filepath.Join(t.TempDir(), "campaign.fwal")
	j, err := CreateCampaignJournal(path, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, tr := NewMetricsRegistry(), NewTracer(nil)
	camp := NewCampaign(spec)
	done, _, err := camp.Run(context.Background(), 1, CampaignOptions{
		Journal: j,
		Obs:     CampaignObs{Metrics: reg, Trace: tr},
	})
	if err != nil || done != 1 {
		t.Fatalf("journaled run: done %d, %v", done, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, restored, err := OpenCampaignJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if restored.Done() != 1 || restored.Fingerprint() != camp.Fingerprint() {
		t.Fatalf("journal restored %d configurations, fingerprint %s, want 1 and %s",
			restored.Done(), restored.Fingerprint(), camp.Fingerprint())
	}
	if v, _ := reg.Snapshot().CounterValue("core.configs_solved"); v != 1 {
		t.Fatalf("registry counted %d solved configurations, want 1", v)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil || !bytes.Contains(buf.Bytes(), []byte("campaign")) {
		t.Fatalf("trace holds no campaign span (%v):\n%s", err, buf.Bytes())
	}
}

// TestFacadeExtendedSurface runs the README's FH-insertion campaign shape
// through the facade: two insertions share each configuration's base
// propagator.
func TestFacadeExtendedSurface(t *testing.T) {
	if AxialCurrentGamma() == (SpinMatrix{}) || TensorCurrentGamma() == (SpinMatrix{}) ||
		AxialCurrentGamma() == TensorCurrentGamma() {
		t.Fatal("current gammas empty or equal")
	}
	store, err := NewResultCache(ResultCacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := FHCampaignConfig{
		RealConfig: tinyCampaignSpec(),
		Insertions: []FHInsertion{
			{Name: "axial", Gamma: AxialCurrentGamma()},
			{Name: "tensor", Gamma: TensorCurrentGamma()},
		},
	}
	res, err := RunFHCampaign(context.Background(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.NConfigs; res.BaseSolves != n || res.FHSolves != 2*n {
		t.Fatalf("solves: base %d, FH %d; want %d and %d", res.BaseSolves, res.FHSolves, n, 2*n)
	}
}

// TestFacadeFunctionsAreDocumented keeps the facade to the doors its
// documentation uses: every exported function of femtoverse.go must be
// called as femtoverse.Name somewhere in README.md, examples/ or
// example_test.go. A new door comes with its documentation or not at all.
func TestFacadeFunctionsAreDocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "femtoverse.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var docs []byte
	for _, name := range []string{"README.md", "example_test.go"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b...)
	}
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		docs = append(docs, b...)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	funcs := 0
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !fn.Name.IsExported() {
			continue
		}
		funcs++
		if !regexp.MustCompile(`\bfemtoverse\.` + fn.Name.Name + `\b`).Match(docs) {
			t.Errorf("femtoverse.%s is named nowhere in README.md, examples/ or example_test.go", fn.Name.Name)
		}
	}
	if funcs == 0 {
		t.Fatal("parsed no exported functions")
	}
}
