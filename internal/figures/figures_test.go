package figures

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"femtoverse/internal/core"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"amortize", "backfill", "budget", "cachewarm", "commpolicy", "distributed", "extrapolation", "fig1", "fig2",
		"fig3", "fig4", "fig5", "fig6", "fig7", "gdr", "lscost", "overlap", "pipeline", "precision", "resilience",
		"startup", "sustained", "table1", "table2", "table3",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("experiments: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiments: %v", got)
		}
	}
	if _, err := Run("nope", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite the render goldens in testdata")

// timedRenders print measured wall times, so they differ run to run and
// have no golden.
var timedRenders = map[string]bool{"cachewarm": true, "distributed": true}

// TestAllExperimentsRenderQuickly runs every experiment in quick mode and
// holds each deterministic render byte for byte to its golden file,
// testdata/<name>.golden. Run with -update-golden after an intentional
// change to an experiment's output.
func TestAllExperimentsRenderQuickly(t *testing.T) {
	for _, name := range Names() {
		res, err := Run(name, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Name() != name {
			t.Fatalf("%s: result named %q", name, res.Name())
		}
		if res.Title() == "" {
			t.Fatalf("%s: empty title", name)
		}
		body := res.Render()
		if len(body) < 40 {
			t.Fatalf("%s: implausibly short render:\n%s", name, body)
		}
		if timedRenders[name] {
			continue
		}
		golden := filepath.Join("testdata", name+".golden")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: golden file missing (run with -update-golden): %v", name, err)
		}
		if body != string(want) {
			t.Errorf("%s: render diverged from %s\n--- got ---\n%s\n--- want ---\n%s", name, golden, body, want)
		}
	}
}

func TestTable2ContainsAllFourMachines(t *testing.T) {
	res, err := Run("table2", true)
	if err != nil {
		t.Fatal(err)
	}
	body := res.Render()
	for _, m := range []string{"Titan", "Ray", "Sierra", "Summit", "V100", "K20X"} {
		if !strings.Contains(body, m) {
			t.Fatalf("table2 missing %q:\n%s", m, body)
		}
	}
}

func TestFig1ShapeClaims(t *testing.T) {
	res, err := Run("fig1", true)
	if err != nil {
		t.Fatal(err)
	}
	f := res.(Fig1)
	// FH on N beats traditional on factor x N.
	if f.R.FH.Err >= f.R.Trad.Err {
		t.Fatalf("FH err %v !< trad err %v", f.R.FH.Err, f.R.Trad.Err)
	}
	// The raw effective coupling rises towards the plateau (negative
	// excited-state contamination at early times).
	geff := f.R.FH.Geff
	if geff[1] >= f.R.FH.GA {
		t.Fatalf("early-time g_eff %v should sit below the plateau %v", geff[1], f.R.FH.GA)
	}
}

func TestFig3OrderingClaims(t *testing.T) {
	res, err := Run("fig3", true)
	if err != nil {
		t.Fatal(err)
	}
	f := res.(Fig3)
	// At every common GPU count Sierra > Ray > Titan in TFlops.
	for i := range f.Series["Titan"] {
		ti := f.Series["Titan"][i]
		ra := f.Series["Ray"][i]
		si := f.Series["Sierra"][i]
		if !(si.TFlops > ra.TFlops && ra.TFlops > ti.TFlops) {
			t.Fatalf("ordering broken at %d GPUs", ti.GPUs)
		}
	}
	// Fig 3c's best-point bandwidths.
	if bw := f.Series["Sierra"][0].BWPerGPU; bw < 880 || bw > 1000 {
		t.Fatalf("Sierra best-point bandwidth %v", bw)
	}
}

func TestFig4RolloverClaim(t *testing.T) {
	res, err := Run("fig4", true)
	if err != nil {
		t.Fatal(err)
	}
	f := res.(Fig4)
	first := f.Points[0]
	last := f.Points[len(f.Points)-1]
	effFirst := first.TFlops / float64(first.GPUs)
	effLast := last.TFlops / float64(last.GPUs)
	if effLast > 0.5*effFirst {
		t.Fatalf("no Fig. 4 efficiency collapse: %v -> %v TF/GPU", effFirst, effLast)
	}
	// Aggregate rate lands in the paper's PFLOPS ballpark.
	if last.TFlops < 500 || last.TFlops > 3000 {
		t.Fatalf("large-scale rate %v TF", last.TFlops)
	}
}

func TestFig5WeakScalingNearlyPerfect(t *testing.T) {
	res, err := Run("fig5", true)
	if err != nil {
		t.Fatal(err)
	}
	f := res.(Fig5)
	for _, name := range f.Order {
		pts := f.Series[name]
		if len(pts) < 2 {
			t.Fatalf("%s: %d points", name, len(pts))
		}
		// Per-GPU sustained rate roughly constant across the sweep.
		r0 := pts[0].SustainedPFlops / float64(pts[0].GPUs)
		r1 := pts[len(pts)-1].SustainedPFlops / float64(pts[len(pts)-1].GPUs)
		if r1 < 0.9*r0 {
			t.Fatalf("%s: weak scaling degraded %v -> %v", name, r0, r1)
		}
	}
	// The MVAPICH2 series runs below SpectrumMPI per GPU (the 15% vs 20%).
	sp := f.Series["SpectrumMPI"][0]
	mv := f.Series["MVAPICH2: mpi_jm"][0]
	if mv.SustainedPFlops/float64(mv.GPUs) >= sp.SustainedPFlops/float64(sp.GPUs) {
		t.Fatal("MVAPICH2 penalty missing")
	}
}

func TestFig6LinearMETAQScaling(t *testing.T) {
	res, err := Run("fig6", true)
	if err != nil {
		t.Fatal(err)
	}
	f := res.(Fig6)
	r0 := f.Points[0].SustainedPFlops / float64(f.Points[0].GPUs)
	r1 := f.Points[len(f.Points)-1].SustainedPFlops / float64(f.Points[len(f.Points)-1].GPUs)
	if r1 < 0.85*r0 {
		t.Fatalf("METAQ weak scaling not near-perfect: %v -> %v", r0, r1)
	}
}

func TestFig7HistogramShape(t *testing.T) {
	res, err := Run("fig7", true)
	if err != nil {
		t.Fatal(err)
	}
	f := res.(Fig7)
	if f.Hist.NSamples != f.NJobs {
		t.Fatalf("histogram holds %d of %d jobs", f.Hist.NSamples, f.NJobs)
	}
	// Peaked distribution: the mode bin is well above the median bin count.
	total := 0
	for _, c := range f.Hist.Counts {
		total += c
	}
	if f.P90 <= f.P10 {
		t.Fatal("degenerate spread")
	}
	// Left tail from slow placements: mean below the nominal rate.
	if f.Mean >= f.PerJob {
		t.Fatalf("mean %v should sit below nominal %v", f.Mean, f.PerJob)
	}
}

func TestBackfillClaims(t *testing.T) {
	res, err := Run("backfill", true)
	if err != nil {
		t.Fatal(err)
	}
	b := res.(Backfill)
	if idle := b.Naive.IdleFraction(); idle < 0.15 || idle > 0.35 {
		t.Fatalf("naive idle %v", idle)
	}
	if b.METAQSpeedup < 1.1 {
		t.Fatalf("METAQ speedup %v", b.METAQSpeedup)
	}
	if b.MpiJMSpeedup < b.METAQSpeedup*0.95 {
		t.Fatalf("mpi_jm speedup %v should be at least METAQ's %v", b.MpiJMSpeedup, b.METAQSpeedup)
	}
	if b.MpiJMScattered != 0 {
		t.Fatalf("mpi_jm scattered %d placements", b.MpiJMScattered)
	}
}

func TestStartupClaims(t *testing.T) {
	res, err := Run("startup", true)
	if err != nil {
		t.Fatal(err)
	}
	s := res.(Startup)
	last := s.Rows[len(s.Rows)-1]
	if last.Nodes != 4224 {
		t.Fatalf("last row %d nodes", last.Nodes)
	}
	if last.Lump32 < 120 || last.Lump32 > 300 || last.Lump128 < 120 || last.Lump128 > 300 {
		t.Fatalf("lump startup outside 3-5 min window: %v / %v", last.Lump32, last.Lump128)
	}
	if last.Monolithic < last.Lump128 {
		t.Fatal("monolithic should lose at scale")
	}
}

// TestFig2RealPipelineBudget runs Fig. 2's real row - a journaled
// core.Run campaign - and checks its split is a budget: the shares sum to
// 100, solves dominate, and every stage and counter saw work.
func TestFig2RealPipelineBudget(t *testing.T) {
	res, err := genFig2(false)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(Fig2).Real
	if r == nil {
		t.Fatal("non-quick Fig. 2 has no real row")
	}
	p, c, io := r.Budget.Fractions()
	if math.Abs(p+c+io-100) > 1e-9 {
		t.Fatalf("shares %v + %v + %v do not sum to 100", p, c, io)
	}
	if p <= 50 {
		t.Fatalf("propagator share %.1f%%; solves must dominate", p)
	}
	if c <= 0 || io <= 0 {
		t.Fatalf("contraction share %v%%, i/o share %v%%; both stages must be measured", c, io)
	}
	if want := 24 * core.DefaultRealConfig().NConfigs; r.Solves != want {
		t.Fatalf("solves = %d, want %d", r.Solves, want)
	}
	if r.Iterations <= 0 || r.JournalBytes <= 0 {
		t.Fatalf("iterations %d, journal %d bytes", r.Iterations, r.JournalBytes)
	}
}

func TestSustainedClaims(t *testing.T) {
	res, err := Run("sustained", true)
	if err != nil {
		t.Fatal(err)
	}
	s := res.(Sustained)
	if s.SmallJobPct < 19 || s.SmallJobPct > 22 {
		t.Fatalf("small-job %v%%", s.SmallJobPct)
	}
	if s.AtScalePct < 13 || s.AtScalePct > 17 {
		t.Fatalf("at-scale %v%%, paper says ~15%%", s.AtScalePct)
	}
	if s.AtScalePFlops < 15 || s.AtScalePFlops > 25 {
		t.Fatalf("at-scale %v PFlops, paper says ~20", s.AtScalePFlops)
	}
	if s.AnticipatedPct <= s.AtScalePct {
		t.Fatal("tuned-MPI anticipation missing")
	}
}

func TestResilienceLumpSizeTradeoff(t *testing.T) {
	res, err := Run("resilience", true)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(Resilience)
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Bigger lumps waste strictly more.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].WastedPct <= r.Rows[i-1].WastedPct {
			t.Fatalf("waste not increasing with lump size: %+v", r.Rows)
		}
	}
	// The exact quick-mode rows, pinned before the experiment moved from
	// the simulator's legacy failure rate to the equivalent DomainLoss
	// plan: any drift in the fault draws, the lump domains or the
	// simulator's clock shows here.
	pins := []struct {
		lump, failures    int
		wasted, makespanS uint64
	}{
		{8, 4, 0x4017b476275706f6, 0x40a9789705cf0ec9},
		{32, 16, 0x4032ab717afd9bf5, 0x40aa991a36ecfeed},
		{128, 64, 0x4058084e3f0953fd, 0x40b54507ffc06625},
	}
	for i, p := range pins {
		row := r.Rows[i]
		if row.LumpNodes != p.lump || row.Failures != p.failures ||
			math.Float64bits(row.WastedPct) != p.wasted || math.Float64bits(row.MakespanS) != p.makespanS {
			t.Fatalf("row %d = %+v, pinned lump %d failures %d wasted %v makespan %v", i, row,
				p.lump, p.failures, math.Float64frombits(p.wasted), math.Float64frombits(p.makespanS))
		}
	}
}

func TestGDRAblationHelpsAtScale(t *testing.T) {
	res, err := Run("gdr", true)
	if err != nil {
		t.Fatal(err)
	}
	g := res.(GDR)
	last := len(g.Without) - 1
	gainSmall := g.With[0].TFlops / g.Without[0].TFlops
	gainLarge := g.With[last].TFlops / g.Without[last].TFlops
	if gainLarge <= 1.001 {
		t.Fatalf("GDR gives no gain at %d GPUs", g.With[last].GPUs)
	}
	if gainLarge <= gainSmall {
		t.Fatalf("GDR gain should grow with scale: %v -> %v", gainSmall, gainLarge)
	}
}

func TestPipelineDependenciesHonoured(t *testing.T) {
	res, err := Run("pipeline", true)
	if err != nil {
		t.Fatal(err)
	}
	p := res.(Pipeline)
	// Dependencies: every contraction starts after both its propagators.
	ends := map[int]float64{}
	for _, st := range p.CoScheduled.PerTask {
		if st.Task.Kind == 0 { // GPUTask
			ends[st.Task.ID] = st.End
		}
	}
	for _, st := range p.CoScheduled.PerTask {
		for _, dep := range st.Task.DependsOn {
			if st.Start < ends[dep] {
				t.Fatalf("task %d started before dependency %d finished", st.Task.ID, dep)
			}
		}
	}
	// Co-scheduling must not be slower than exclusive placement.
	if p.CoScheduled.Makespan > p.Exclusive.Makespan {
		t.Fatal("co-scheduling lost to exclusive placement")
	}
}

func TestExtrapolationExperimentRecoversTruth(t *testing.T) {
	res, err := Run("extrapolation", true)
	if err != nil {
		t.Fatal(err)
	}
	e := res.(Extrapolation)
	if d := e.Result.GA - e.Truth; d*d > 9*e.Result.Err*e.Result.Err {
		t.Fatalf("physical point %v +- %v vs truth %v", e.Result.GA, e.Result.Err, e.Truth)
	}
	if e.Tau < 820 || e.Tau > 950 {
		t.Fatalf("tau %v", e.Tau)
	}
	if len(e.Points) != 11 {
		t.Fatalf("%d ensembles", len(e.Points))
	}
}

func TestPrecisionAblationRatios(t *testing.T) {
	res, err := Run("precision", true)
	if err != nil {
		t.Fatal(err)
	}
	p := res.(Precision)
	if len(p.Rows) != 3 {
		t.Fatalf("%d rows", len(p.Rows))
	}
	// half = 4x double, single = 2x double on a bandwidth-bound solver.
	var half, double float64
	for _, r := range p.Rows {
		switch r.Name {
		case "half":
			half = r.Speedup
		case "double":
			double = r.Speedup
		}
	}
	if double != 1 || half < 3.9 || half > 4.1 {
		t.Fatalf("speedups: half %v double %v", half, double)
	}
}

func TestLsCostTradeoff(t *testing.T) {
	res, err := Run("lscost", true)
	if err != nil {
		t.Fatal(err)
	}
	l := res.(LsCost)
	if len(l.Rows) < 2 {
		t.Fatalf("%d rows", len(l.Rows))
	}
	first, last := l.Rows[0], l.Rows[len(l.Rows)-1]
	// Cost grows roughly linearly with Ls (within a factor of 2 of the
	// Ls ratio: iteration counts also shift a little).
	lsRatio := float64(last.Ls) / float64(first.Ls)
	if last.RelCost < lsRatio/2 || last.RelCost > 2.5*lsRatio {
		t.Fatalf("cost ratio %v for Ls ratio %v", last.RelCost, lsRatio)
	}
	// m_res falls much faster than the cost grows.
	if last.RelMRes > 0.25 {
		t.Fatalf("m_res only fell to %v of the Ls=%d value", last.RelMRes, first.Ls)
	}
}

func TestBudgetImprovesWithStatistics(t *testing.T) {
	res, err := Run("budget", true)
	if err != nil {
		t.Fatal(err)
	}
	b := res.(BudgetExp)
	if len(b.Rows) < 2 {
		t.Fatalf("%d rows", len(b.Rows))
	}
	first, last := b.Rows[0], b.Rows[len(b.Rows)-1]
	if last.TotalErr >= first.TotalErr {
		t.Fatalf("total error did not fall: %v -> %v", first.TotalErr, last.TotalErr)
	}
	// The statistical component scales roughly like 1/sqrt(N).
	nRatio := float64(last.Samples) / float64(first.Samples)
	want := math.Sqrt(nRatio)
	ratio := first.StatErr / last.StatErr
	if ratio < want*0.55 || ratio > want*1.8 {
		t.Fatalf("stat error ratio %v for %vx samples (expect ~%v)", ratio, nRatio, want)
	}
}

func TestOverlapBudgetShapes(t *testing.T) {
	res, err := Run("overlap", true)
	if err != nil {
		t.Fatal(err)
	}
	o := res.(Overlap)
	if len(o.Rows) < 3 {
		t.Fatalf("%d rows", len(o.Rows))
	}
	for i := 1; i < len(o.Rows); i++ {
		if o.Rows[i].InteriorFrac > o.Rows[i-1].InteriorFrac {
			t.Fatal("interior fraction not monotone")
		}
	}
}
