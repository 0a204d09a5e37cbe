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
	"strings"
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

// exportAllowList names the exported internal functions and methods that
// no non-test code calls on purpose, each with the reason it stays: test
// hooks a suite drives the package through, and reference
// implementations the fast paths are checked against.
var exportAllowList = map[string]string{
	// Test hooks.
	"analysistest.RunExpectNone":  "test-support package: runs an analyzer fixture that must stay silent",
	"cache.Cache.MemKeys":         "exposes the LRU order the eviction tests pin",
	"cache.Flight.Inflight":       "exposes in-flight keys so the singleflight tests can wait for a leader",
	"domain.Dist.ApplyCtx":        "the cancellation tests' door into the ctx-aware apply that Apply runs under context.Background",
	"obs.StepClock":               "the deterministic clock behind the golden trace files",
	"serve.Server.ResumeDispatch": "releases a StartPaused server so the fair-share tests can pin the dispatch order",
	"wire.NewFrameReader":         "reads a byte stream as frames for the codec, fuzz and ownership tests",
	"wire.Session.ApplyCtx":       "the cancellation tests' door into the ctx-aware apply that Apply runs under context.Background",
	"wire.Session.ChaosCounts":    "exposes the coordinator's injected-fault tally to the chaos tests",
	// Test references: independent implementations the tests check the
	// production paths against.
	"dirac.Wilson.ApplyDense":      "dense-matrix Wilson operator the spin-projected kernels are checked against",
	"gauge.Field.GaugeTransform":   "gauge rotation for the gauge-invariance checks of the measurement chain",
	"gauge.RandomGaugeRotation":    "draws the rotation the gauge-invariance checks apply",
	"linalg.AxpyZ":                 "out-of-place axpy the staged Schur reference and the linearity checks combine fields with",
	"linalg.SU3.UnitarityError":    "group-membership check for generated and reunitarized links",
	"obs.Tracer.BusySeconds":       "trace-side busy seconds, cross-checked against the runtime's integrals",
	"prop.ComputePerturbed":        "the explicit-insertion propagator the Feynman-Hellmann propagator is checked against",
	"runtime.Timeline.BusySeconds": "timeline-side busy seconds, cross-checked against the runtime's integrals",
}

// stdlibCalled names the methods the standard library calls through its
// interfaces (sort.Interface and heap.Interface), so no call site names
// them.
var stdlibCalled = map[string]bool{"Less": true, "Swap": true}

// TestInternalExportsHaveCallers keeps internal/ free of dead library:
// every exported function or method declared in a non-test file under
// internal/ must be named by some non-test code of the module - cmd/,
// examples/ and the nested benchmark module included - other than by its
// own declaration and body. Names are matched as identifiers, so a
// mention in a comment does not count, and a method counts as called
// when any call site uses its name. A new export arrives with its
// caller, or it is listed in exportAllowList with the reason it has none.
func TestInternalExportsHaveCallers(t *testing.T) {
	type export struct {
		key, name string
		method    bool
	}
	var exports []export
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			// Neither the declaration nor a recursive call is a caller. A
			// declaration without a body is implemented in assembly.
			uses[fn.Name.Name]--
			if fn.Body != nil {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && isSelfCall(fn, call.Fun) {
						uses[fn.Name.Name]--
					}
					return true
				})
			}
			if !internal || !fn.Name.IsExported() {
				continue
			}
			key := filepath.Base(filepath.Dir(path)) + "."
			if fn.Recv != nil {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			key += fn.Name.Name
			exports = append(exports, export{key, fn.Name.Name, fn.Recv != nil})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) == 0 {
		t.Fatal("parsed no internal exports")
	}
	listed := map[string]bool{}
	for _, e := range exports {
		if _, ok := exportAllowList[e.key]; ok {
			listed[e.key] = true
			continue
		}
		if uses[e.name] <= 0 && !(e.method && stdlibCalled[e.name]) {
			t.Errorf("%s is exported but no non-test code calls it", e.key)
		}
	}
	for key := range exportAllowList {
		if !listed[key] {
			t.Errorf("exportAllowList names %s, which is not an exported internal function", key)
		}
	}
}

// recvName returns the type name of a method receiver expression.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// isSelfCall reports whether fun, called inside fn's body, is fn itself:
// the bare name for a function, the receiver's method for a method.
func isSelfCall(fn *ast.FuncDecl, fun ast.Expr) bool {
	if fn.Recv == nil {
		id, ok := fun.(*ast.Ident)
		return ok && id.Name == fn.Name.Name
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn.Name.Name || len(fn.Recv.List[0].Names) == 0 {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == fn.Recv.List[0].Names[0].Name
}
