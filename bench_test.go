package femtoverse

// The benchmark harness of the reproduction: one benchmark per table and
// figure of the paper's evaluation (each regenerates the experiment and
// reports its headline metric), plus kernel microbenchmarks and the
// ablations called out in DESIGN.md (precision of the sloppy solver
// stage, communication policy choice, scheduler choice). Run with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks use the quick statistics mode so a full sweep stays
// in minutes; cmd/latbench regenerates the full-statistics versions.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"femtoverse/internal/comms"
	"femtoverse/internal/contract"
	"femtoverse/internal/dirac"
	"femtoverse/internal/domain"
	"femtoverse/internal/figures"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/machine"
	"femtoverse/internal/perfmodel"
	"femtoverse/internal/prop"
	"femtoverse/internal/solver"
	"femtoverse/internal/wire"
)

// benchExperiment regenerates one table/figure per iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := figures.Run(name, true)
		if err != nil {
			b.Fatal(err)
		}
		if res.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

// Tables.

func BenchmarkTable1Attributes(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2Machines(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3Software(b *testing.B)   { benchExperiment(b, "table3") }

// Figures.

func BenchmarkFig1EffectiveGA(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2Workflow(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3StrongScaling(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4SummitStrong(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5SierraWeak(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6SummitMETAQ(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7Histogram(b *testing.B)     { benchExperiment(b, "fig7") }

// Section V / VI / VII claims.

func BenchmarkClaimBackfill(b *testing.B)  { benchExperiment(b, "backfill") }
func BenchmarkClaimStartup(b *testing.B)   { benchExperiment(b, "startup") }
func BenchmarkClaimSustained(b *testing.B) { benchExperiment(b, "sustained") }
func BenchmarkClaimAmortize(b *testing.B)  { benchExperiment(b, "amortize") }

// Extension experiments.

func BenchmarkExpResilience(b *testing.B)    { benchExperiment(b, "resilience") }
func BenchmarkExpGDR(b *testing.B)           { benchExperiment(b, "gdr") }
func BenchmarkExpPipeline(b *testing.B)      { benchExperiment(b, "pipeline") }
func BenchmarkExpCommPolicy(b *testing.B)    { benchExperiment(b, "commpolicy") }
func BenchmarkExpExtrapolation(b *testing.B) { benchExperiment(b, "extrapolation") }
func BenchmarkExpPrecision(b *testing.B)     { benchExperiment(b, "precision") }
func BenchmarkExpLsCost(b *testing.B)        { benchExperiment(b, "lscost") }
func BenchmarkExpBudget(b *testing.B)        { benchExperiment(b, "budget") }
func BenchmarkExpOverlap(b *testing.B)       { benchExperiment(b, "overlap") }

// Kernel microbenchmarks on an 8^3 x 16 lattice (large enough that the
// parallel site loops engage).

func benchLattice(b *testing.B) (*gauge.Field, *lattice.Geometry) {
	b.Helper()
	g := lattice.MustNew(8, 8, 8, 16)
	return gauge.NewRandom(g, 1), g
}

func BenchmarkWilsonDslash(b *testing.B) {
	cfg, g := benchLattice(b)
	w := dirac.NewWilson(cfg, 0.1)
	src := make([]complex128, w.Size())
	dst := make([]complex128, w.Size())
	rng := rand.New(rand.NewSource(2))
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Apply(dst, src)
	}
	gflops := float64(w.Flops()) / 1e9
	b.ReportMetric(gflops/b.Elapsed().Seconds()*float64(b.N), "GFLOPS")
	_ = g
}

func BenchmarkMobiusApply(b *testing.B) {
	cfg, _ := benchLattice(b)
	m, err := dirac.NewMobius(cfg, dirac.MobiusParams{Ls: 8, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	src := make([]complex128, m.Size())
	dst := make([]complex128, m.Size())
	src[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Apply(dst, src)
	}
	b.ReportMetric(float64(m.Flops())/1e9/b.Elapsed().Seconds()*float64(b.N), "GFLOPS")
}

func BenchmarkSchurApply(b *testing.B) {
	cfg, _ := benchLattice(b)
	m, err := dirac.NewMobius(cfg, dirac.MobiusParams{Ls: 8, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]complex128, eo.HalfSize())
	dst := make([]complex128, eo.HalfSize())
	src[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eo.Apply(dst, src)
	}
	b.ReportMetric(float64(eo.FlopsPerApply())/1e9/b.Elapsed().Seconds()*float64(b.N), "GFLOPS")
}

func BenchmarkSchurApply32(b *testing.B) {
	cfg, _ := benchLattice(b)
	m, err := dirac.NewMobius(cfg, dirac.MobiusParams{Ls: 8, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		b.Fatal(err)
	}
	q := dirac.NewMobiusEO32(eo)
	src := make([]complex64, eo.HalfSize())
	dst := make([]complex64, eo.HalfSize())
	src[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Apply(dst, src)
	}
	b.ReportMetric(float64(eo.FlopsPerApply())/1e9/b.Elapsed().Seconds()*float64(b.N), "GFLOPS")
}

// BenchmarkSchurNormal is one normal-equation application - what a CG
// iteration costs - at the fh-* lattice of the repository benchmark on a
// dense source: the shape the campaigns run, under both split cuts, where
// a few per cent in the hop bodies shows and the 8^3 x 16 point-source
// rows above do not resolve it. Run with -cpu 1. Its paired twin,
// BenchmarkSchurNormalPaired in internal/dirac, times the same
// application against the scalar kernel the lane-major one replaced,
// in adjacent blocks of one process, and reports the ratio.
func BenchmarkSchurNormal(b *testing.B) {
	g := lattice.MustNew(2, 2, 4, 8)
	m, err := dirac.NewMobius(gauge.NewRandom(g, 1), dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		b.Fatal(err)
	}
	q := dirac.NewMobiusEO32(eo)
	n := eo.HalfSize()
	src, dst := make([]complex128, n), make([]complex128, n)
	rng := rand.New(rand.NewSource(2))
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	src32, dst32 := make([]complex64, n), make([]complex64, n)
	linalg.Demote(src32, src)
	one64, one32 := [2][][]complex128{{dst}, {src}}, [2][][]complex64{{dst32}, {src32}}
	for _, c := range []struct {
		name   string
		normal func()
	}{
		{"f64", func() { eo.ApplyNormal(one64[0], one64[1]) }},
		{"f32", func() { q.ApplyNormal(one32[0], one32[1]) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.normal()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N), "us/op")
		})
	}
}

// Ablation: solver precision. The paper's double-half scheme exists
// because sloppy arithmetic is cheaper per iteration; these three
// benchmarks quantify that on the same solve.

func benchSolve(b *testing.B, prec solver.Precision) {
	g := lattice.MustNew(4, 4, 4, 8)
	cfg := gauge.NewWeak(g, 3, 0.3)
	cfg.FlipTimeBoundary()
	m, err := dirac.NewMobius(cfg, dirac.MobiusParams{Ls: 6, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		b.Fatal(err)
	}
	var sloppy solver.Linear32
	if prec != solver.Double {
		sloppy = dirac.NewMobiusEO32(eo)
	}
	rhs := make([]complex128, eo.HalfSize())
	rng := rand.New(rand.NewSource(4))
	for i := range rhs {
		rhs[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	par := solver.Params{Tol: 1e-8, Precision: prec, FlopsPerApply: eo.FlopsPerApply()}
	b.ResetTimer()
	var last solver.Stats
	for i := 0; i < b.N; i++ {
		_, st, err := solver.CGNEMixed(context.Background(), eo, sloppy, rhs, par)
		if err != nil {
			b.Fatal(err)
		}
		last = st
	}
	b.ReportMetric(float64(last.Iterations), "iters")
	b.ReportMetric(float64(last.Flops)/last.Elapsed.Seconds()/1e9, "GFLOPS")
}

func BenchmarkCGNEDouble(b *testing.B) { benchSolve(b, solver.Double) }
func BenchmarkCGNESingle(b *testing.B) { benchSolve(b, solver.Single) }
func BenchmarkCGNEHalf(b *testing.B)   { benchSolve(b, solver.Half) }

// BenchmarkPropagator is one point propagator - twelve component solves
// through prop's batch - at the fh-* lattice of the repository benchmark,
// on one lane and on two. The lane count is not a parameter of the code;
// the row sets the budget the code observes (linalg.DefaultWorkers) and
// restores it.
func BenchmarkPropagator(b *testing.B) {
	g := lattice.MustNew(2, 2, 4, 8)
	cfg := gauge.NewWeak(g, 3, 0.3)
	cfg.FlipTimeBoundary()
	m, err := dirac.NewMobius(cfg, dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		b.Fatal(err)
	}
	for _, lanes := range []int{1, 2} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			defer func(old int) { linalg.DefaultWorkers = old }(linalg.DefaultWorkers)
			linalg.DefaultWorkers = lanes
			qs := prop.NewQuarkSolver(eo, solver.Params{Tol: 1e-8, Precision: solver.Single})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qs.ComputePoint([4]int{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(qs.Solves)/b.Elapsed().Seconds(), "solves/s")
		})
	}
}

// Communication-policy choice: the model's exhaustive pick, across a
// strong-scaling sweep on Sierra and for one exchange.

func BenchmarkCommPolicyTuned(b *testing.B) {
	problem := perfmodel.Problem{Global: [4]int{48, 48, 48, 64}, Ls: 20}
	counts := []int{4, 16, 64, 128}
	for i := 0; i < b.N; i++ {
		m := perfmodel.New(machine.Sierra())
		pts := m.StrongScaling(problem, counts)
		if len(pts) != len(counts) {
			b.Fatal("missing points")
		}
	}
}

func BenchmarkCommPolicyEnumeration(b *testing.B) {
	mod := comms.Model{M: machine.Sierra()}
	ex := comms.Exchange{
		InterBytes: 8e6, IntraBytes: 4e6, Dims: 3, GPUsPerNIC: 4, Nodes: 16,
		ComputeSeconds: 1e-3,
	}
	for i := 0; i < b.N; i++ {
		if _, t := mod.Best(ex); t <= 0 {
			b.Fatal("degenerate exchange")
		}
	}
}

// Contractions and storage.

func BenchmarkProtonContraction(b *testing.B) {
	g := lattice.MustNew(4, 4, 4, 8)
	p := prop.NewPropagator(g)
	rng := rand.New(rand.NewSource(5))
	for j := range p.Col {
		for i := range p.Col[j] {
			p.Col[j][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := contract.Proton2pt(p, p, 0)
		if len(c) != 8 {
			b.Fatal("bad correlator")
		}
	}
}

func BenchmarkHalfPrecisionCodec(b *testing.B) {
	n := 12 * 4096
	v := make([]complex64, n)
	rng := rand.New(rand.NewSource(6))
	for i := range v {
		v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	h := linalg.NewHalfVector(n, 12)
	out := make([]complex64, n)
	b.SetBytes(int64(h.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.EncodeC64(v)
		h.DecodeC64(out)
	}
}

func BenchmarkBLAS1Axpy(b *testing.B) {
	n := 1 << 20
	x := make([]complex128, n)
	y := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i), 1)
	}
	b.SetBytes(int64(32 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.Axpy(complex(1e-9, 0), x, y)
	}
}

// Ensemble generation: one Metropolis sweep of the local gauge sampler.

func BenchmarkMetropolisSweep(b *testing.B) {
	g := lattice.MustNew(4, 4, 4, 4)
	f := gauge.NewWeak(g, 73, 0.3)
	rng := rand.New(rand.NewSource(74))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MetropolisSweep(rng, 5.7, 0.3, 2)
	}
}

// Distributed vs shared-memory dslash: the four-step halo pipeline's
// overhead at laptop scale (rank goroutines, channel halo exchange,
// scatter/gather) against the flat shared-memory kernel.

func BenchmarkDistributedDslash(b *testing.B) {
	g := lattice.MustNew(8, 8, 8, 16)
	cfg := gauge.NewRandom(g, 81)
	d, err := domain.NewDist(cfg, [4]int{2, 2, 1, 2}, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]complex128, d.Size())
	dst := make([]complex128, d.Size())
	src[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply(dst, src)
	}
	b.ReportMetric(float64(g.Vol)*1320/1e9/b.Elapsed().Seconds()*float64(b.N), "GFLOPS")
}

// The wire data path, one rung at a time: the frame codec alone, the
// subdomain stencil alone, then a whole 2-rank application over localhost
// TCP - as one operator per round trip, and as the normal operator CGNE
// asks for in one. Sizes are the benchmark's wire-2rank workload (4^3 x 8
// over {1,1,1,2}).

// benchWireSession starts a 2-rank session with goroutine-hosted workers.
func benchWireSession(b *testing.B) (*wire.Session, []complex128, []complex128) {
	b.Helper()
	g := lattice.MustNew(4, 4, 4, 8)
	s, err := wire.NewSession(gauge.NewWeak(g, 11, 0.3), wire.Options{
		Grid: [4]int{1, 1, 1, 2}, Mass: 0.1,
		CheckpointPath: filepath.Join(b.TempDir(), "subs.fhio"),
		Spawn: func(addr string) error {
			// The worker's exit status is the session teardown's, not the
			// benchmark's: a death mid-run fails the apply that meets it.
			go wire.Serve(addr, wire.WorkerOptions{})
			return nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	src := make([]complex128, s.Size())
	rng := rand.New(rand.NewSource(5))
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return s, make([]complex128, s.Size()), src
}

func BenchmarkWireApply2Rank(b *testing.B) {
	s, dst, src := benchWireSession(b)
	s.Apply(dst, src)
	b.ReportAllocs()
	b.SetBytes(int64(2 * 16 * len(src))) // the field out and the field back
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(dst, src)
	}
}

func BenchmarkWireNormal2Rank(b *testing.B) {
	s, dst, src := benchWireSession(b)
	one := [2][][]complex128{{dst}, {src}}
	s.ApplyNormal(one[0], one[1])
	b.ReportAllocs()
	b.SetBytes(int64(2 * 16 * len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyNormal(one[0], one[1])
	}
}

func BenchmarkDomainSubStencil(b *testing.B) {
	g := lattice.MustNew(4, 4, 4, 8)
	specs, err := domain.BuildSpecs(gauge.NewWeak(g, 11, 0.3), [4]int{1, 1, 1, 2}, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := domain.NewSub(specs[0])
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i, src := 0, sub.Src(); i < len(src); i++ {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.SetBytes(int64(2 * 16 * len(sub.Src()))) // source read, result written
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub.StencilInterior()
		sub.StencilBoundary()
	}
	b.ReportMetric(float64(len(sub.Src())/12)*1320/1e9/b.Elapsed().Seconds()*float64(b.N), "GFLOPS")
}

// replay serves the frame its sender last rendered, over and over.
type replay struct {
	frame *[]byte
	at    int
}

func (r *replay) Read(p []byte) (int, error) {
	n := copy(p, (*r.frame)[r.at:])
	r.at = (r.at + n) % len(*r.frame)
	return n, nil
}

// BenchmarkFrameRoundTrip is one field through the codec the way a
// connection does it: rendered from the field into a reused write buffer
// and sealed there, read back through a reused read buffer, checksummed
// in place and decoded straight into the field.
func BenchmarkFrameRoundTrip(b *testing.B) {
	field := make([]complex128, 4*4*4*4*12) // one rank's local field
	rng := rand.New(rand.NewSource(5))
	for i := range field {
		field[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	render := func(buf []byte, xid uint64) []byte {
		return wire.FinishFrame(wire.AppendComplex(wire.BeginFrame(buf[:0], wire.MsgApply, wire.CoordRank, xid), field))
	}
	frame := render(nil, 0)
	rd := wire.NewFrameReader(&replay{frame: &frame}, 16*len(field))
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = render(frame, uint64(i))
		f, err := rd.Next()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodeComplex(field, f.Payload); err != nil {
			b.Fatal(err)
		}
	}
}
