package femtoverse

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
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
	"analysistest.Facts":          "test-support package: runs an analyzer fixture and returns the facts it exports",
	"analysistest.Run":            "test-support package: runs an analyzer fixture against its // want comments",
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
	"dirac.Mobius.Flops":           "the unpreconditioned operator's flop count, the other side of the preconditioning ablation",
	"dirac.Wilson.ApplyDense":      "dense-matrix Wilson operator the spin-projected kernels are checked against",
	"gauge.Field.GaugeTransform":   "gauge rotation for the gauge-invariance checks of the measurement chain",
	"gauge.RandomGaugeRotation":    "draws the rotation the gauge-invariance checks apply",
	"linalg.AxpyZ":                 "out-of-place axpy the staged Schur reference and the linearity checks combine fields with",
	"linalg.SU3.UnitarityError":    "group-membership check for generated and reunitarized links",
	"obs.Tracer.BusySeconds":       "trace-side busy seconds, cross-checked against the runtime's integrals",
	"prop.ComputePerturbed":        "the explicit-insertion propagator the Feynman-Hellmann propagator is checked against",
	"runtime.Timeline.BusySeconds": "timeline-side busy seconds, cross-checked against the runtime's integrals",
}

// TestInternalExportsHaveCallers keeps internal/ free of dead library:
// every exported function or method declared in a non-test file under
// internal/ must be used by some non-test code of the module - cmd/,
// examples/ and the nested benchmark module included - other than its own
// body. Uses are resolved by go/types against the export data `go list
// -export` writes, so a call counts for the function it calls and for no
// other of the same name. A method also counts as called when its type
// implements an interface whose method of that name non-test code calls,
// or an interface of the standard library, which calls through its own
// (sort.Interface, fmt.Stringer, error, ...). A new export arrives with
// its caller, or it is listed in exportAllowList with the reason it has
// none.
func TestInternalExportsHaveCallers(t *testing.T) {
	exports := map[string]*types.Func{} // by exportKey, the internal exports
	used := map[string]bool{}           // by exportKey, every function used
	var ifaceUses []*types.Func         // interface methods used
	var stdIfaces []*types.Interface    // the standard library's interfaces
	for _, dir := range []string{".", "benchmark"} {
		pkgs := listExport(t, dir)
		fset := token.NewFileSet()
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			p, ok := pkgs[path]
			if !ok || p.Export == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(p.Export)
		})
		for _, p := range pkgs {
			if p.Standard {
				// The exports are all of the root module, and an interface
				// only compares with the types of its own importer.
				if dir == "." && !strings.Contains(p.ImportPath, "internal") && !strings.Contains(p.ImportPath, "vendor") {
					stdIfaces = append(stdIfaces, scopeInterfaces(t, imp, p.ImportPath)...)
				}
				continue
			}
			if p.Module == nil || p.Module.Path != moduleOf(dir) {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
			conf := types.Config{Importer: importerMap{imp, p.ImportMap}}
			if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
				t.Fatalf("type-checking %s: %v", p.ImportPath, err)
			}
			internal := strings.Contains(p.ImportPath, "/internal/")
			for _, f := range files {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok {
						ast.Inspect(decl, func(n ast.Node) bool { noteUse(info, n, nil, used, &ifaceUses); return true })
						continue
					}
					obj := info.Defs[fn.Name].(*types.Func)
					if internal && fn.Name.IsExported() {
						exports[exportKey(obj)] = obj
					}
					// Neither the declaration nor a recursive call is a use.
					ast.Inspect(fn, func(n ast.Node) bool { noteUse(info, n, obj, used, &ifaceUses); return true })
				}
			}
		}
	}
	if len(exports) == 0 {
		t.Fatal("found no internal exports")
	}
	keys := make([]string, 0, len(exports))
	for key := range exports {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	listed := map[string]bool{}
	for _, key := range keys {
		fn := exports[key]
		name := shortKey(fn)
		if _, ok := exportAllowList[name]; ok {
			listed[name] = true
			continue
		}
		if !used[key] && !calledThroughInterface(fn, ifaceUses, stdIfaces) {
			t.Errorf("%s is exported but no non-test code calls it", name)
		}
	}
	for key := range exportAllowList {
		if !listed[key] {
			t.Errorf("exportAllowList names %s, which is not an exported internal function", key)
		}
	}
}

// listedPackage is the part of `go list -json` the export gate reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	Standard                bool
	GoFiles                 []string
	ImportMap               map[string]string
	Module                  *struct{ Path string }
}

// listExport lists the packages of the module in dir and all their
// dependencies, by import path, with export data built for each.
func listExport(t *testing.T, dir string) map[string]*listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	pkgs := map[string]*listedPackage{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		pkgs[p.ImportPath] = p
	}
	return pkgs
}

// moduleOf is the path of the module rooted at dir.
func moduleOf(dir string) string {
	if dir == "." {
		return "femtoverse"
	}
	return "femtoverse/" + dir
}

// importerMap resolves a package's import paths through its ImportMap.
type importerMap struct {
	types.Importer
	m map[string]string
}

func (im importerMap) Import(path string) (*types.Package, error) {
	if mapped, ok := im.m[path]; ok {
		path = mapped
	}
	return im.Importer.Import(path)
}

// scopeInterfaces returns the exported interface types, with methods, of
// the package at path.
func scopeInterfaces(t *testing.T, imp types.Importer, path string) []*types.Interface {
	pkg, err := imp.Import(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []*types.Interface
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	return out
}

// noteUse records a use of a function in node n, unless it is self, the
// function the use is inside.
func noteUse(info *types.Info, n ast.Node, self *types.Func, used map[string]bool, ifaceUses *[]*types.Func) {
	id, ok := n.(*ast.Ident)
	if !ok {
		return
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Origin() == self {
		return // not a function, a method of the universe's error, or a recursive call
	}
	used[exportKey(fn)] = true
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		*ifaceUses = append(*ifaceUses, fn)
	}
}

// exportKey names a function across the source and export-data views of
// its package: package path, receiver type name, name.
func exportKey(fn *types.Func) string {
	return fn.Pkg().Path() + "." + recvTypeName(fn) + fn.Name()
}

// shortKey is exportKey with the package's last path element, the form
// exportAllowList and the failures use.
func shortKey(fn *types.Func) string {
	return path.Base(fn.Pkg().Path()) + "." + recvTypeName(fn) + fn.Name()
}

// recvTypeName is the name of fn's receiver type and a dot, or "" for a
// function.
func recvTypeName(fn *types.Func) string {
	recv := fn.Origin().Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "."
	}
	return "?."
}

// calledThroughInterface reports whether method fn can be reached through
// an interface call: its receiver type implements the interface of a used
// interface method of its name, or a standard-library interface with a
// method of its name. Against the module's interfaces methods are
// compared by name and signature string, since the source and export-data
// views of one package's types are different objects. A generic receiver
// type is compared as instantiated with the type arguments of the
// interface's instance, which is how a generic type implements a generic
// interface.
func calledThroughInterface(fn *types.Func, ifaceUses []*types.Func, stdIfaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ptr := types.NewPointer(t)
	for _, it := range stdIfaces {
		if sel, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); sel != nil && types.Implements(ptr, it) {
			return true
		}
	}
	implements := func(t types.Type, it *types.Interface) bool {
		have := map[string]string{}
		ms := types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			have[m.Name()] = sigString(m.Type().(*types.Signature))
		}
		for i := 0; i < it.NumMethods(); i++ {
			if m := it.Method(i); have[m.Name()] != sigString(m.Type().(*types.Signature)) {
				return false
			}
		}
		return true
	}
	for _, m := range ifaceUses {
		if m.Name() != fn.Name() {
			continue
		}
		iface := m.Type().(*types.Signature).Recv().Type()
		inst := t
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			in, ok := iface.(*types.Named)
			if !ok || in.TypeArgs().Len() != n.TypeParams().Len() {
				continue
			}
			args := make([]types.Type, in.TypeArgs().Len())
			for i := range args {
				args[i] = in.TypeArgs().At(i)
			}
			var err error
			if inst, err = types.Instantiate(nil, n.Origin(), args, true); err != nil {
				continue
			}
		}
		if implements(inst, iface.Underlying().(*types.Interface)) {
			return true
		}
	}
	return false
}

// sigString writes a signature's parameter and result types, without
// names and with packages by path, the same in either view.
func sigString(sig *types.Signature) string {
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), (*types.Package).Path) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
