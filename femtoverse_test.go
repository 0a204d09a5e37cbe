package femtoverse

import (
	"bytes"
	"math"
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
	p := A09M310(100, 3)
	if p.GA != 1.271 {
		t.Fatal("calibration constants")
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
	if NewTuner().Len() != 0 {
		t.Fatal("fresh tuner not empty")
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
	if len(Experiments()) < 14 {
		t.Fatalf("experiments: %v", Experiments())
	}
	res, err := Experiment("table1", true)
	if err != nil || res.Render() == "" {
		t.Fatalf("experiment: %v", err)
	}
}

func TestFacadeWorkflowAndIO(t *testing.T) {
	mr, err := ModelWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	p, c, io := mr.Budget.Fractions()
	if p < 90 || c <= 0 || io <= 0 {
		t.Fatalf("budget %v %v %v", p, c, io)
	}
	f := NewHFile()
	if err := f.Root().WriteFloat64("x", []int{1}, []float64{42}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExtendedSurface(t *testing.T) {
	// Gamma helpers.
	g5 := GammaMatrix(4)
	if g5[0][0] != 1 || g5[2][2] != -1 {
		t.Fatal("gamma_5")
	}
	if AxialCurrentGamma() == (SpinMatrix{}) || TensorCurrentGamma() == (SpinMatrix{}) {
		t.Fatal("current gammas empty")
	}

	// HMC ensemble through the facade.
	g, err := NewLattice(2, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ens, h, err := HMCEnsemble(g, HMCParams{Beta: 5.7, Steps: 6, StepSize: 0.1, Seed: 3}, 2, 3, 1)
	if err != nil || len(ens) != 2 {
		t.Fatalf("HMC ensemble: %v", err)
	}
	if h.Trajectories == 0 {
		t.Fatal("no trajectories recorded")
	}

	// Smearing + NERSC round trip.
	sm, err := ens[0].StoutSmear(0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNERSC(sm, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNERSC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(back.Plaquette()-sm.Plaquette()) > 1e-14 {
		t.Fatal("NERSC round trip changed plaquette")
	}

	// Extrapolation through the facade.
	pts := []EnsemblePoint{
		{EpsPi2: 0.07, A2: 0.2, GA: 1.22, Err: 0.01},
		{EpsPi2: 0.03, A2: 0.2, GA: 1.25, Err: 0.01},
		{EpsPi2: 0.07, A2: 0.06, GA: 1.24, Err: 0.01},
		{EpsPi2: 0.03, A2: 0.06, GA: 1.27, Err: 0.01},
		{EpsPi2: 0.013, A2: 0.12, GA: 1.27, Err: 0.015},
	}
	res, err := ExtrapolateGA(pts, 0.0145)
	if err != nil || res.Err <= 0 {
		t.Fatalf("extrapolation: %v", err)
	}
}

func TestFacadeDistributedOperator(t *testing.T) {
	g, err := NewLattice(4, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := UnitGauge(g)
	d, err := NewDistributedWilson(u, [4]int{2, 1, 1, 2}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Ranks() != 4 {
		t.Fatalf("ranks %d", d.Ranks())
	}
	src := make([]complex128, d.Size())
	src[0] = 1
	dst := make([]complex128, d.Size())
	d.Apply(dst, src)
	if dst[0] == 0 {
		t.Fatal("distributed apply produced nothing")
	}
}
