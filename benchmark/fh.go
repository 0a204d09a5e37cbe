package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"femtoverse/internal/contract"
	"femtoverse/internal/core"
	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/prop"
	"femtoverse/internal/solver"
)

// fhWorkload is the sequential Feynman-Hellmann campaign at one sloppy
// precision: the paper's production path. One operation is one
// propagator-component solve (24 per configuration).
func fhWorkload(name string, prec solver.Precision) workload {
	return workload{
		name: name,
		op:   "propagator-component solve (prop Solve4D)",
		setup: func(sc scale, seed int64, dir string, rec *spans) (env, error) {
			return setupFH(sc, seed, prec, rec)
		},
	}
}

// fhSpec derives the campaign spec from the benchmark seed. Both
// precisions draw the same gauge seed, so fh-single and fh-half differ
// in the sloppy stage alone.
func fhSpec(sc scale, seed int64, prec solver.Precision) core.RealConfig {
	spec := core.DefaultRealConfig()
	spec.Dims = [4]int{2, 2, 4, 8}
	spec.Params.Ls = 4
	spec.NConfigs = 2
	if sc.smoke {
		spec.Dims = [4]int{2, 2, 2, 4}
		spec.Params.Ls = 2
	}
	spec.Seed = rand.New(rand.NewSource(seed)).Int63()
	spec.Tol = tol
	spec.Prec = prec
	return spec
}

type fhEnv struct {
	spec core.RealConfig
	g    *lattice.Geometry
	// ensemble is what the per-operation solves of an untraced pass run
	// on; core.RunReal and the traced pass generate their own, as the
	// product does inside the call.
	ensemble []*gauge.Field

	// ref holds the per-operation digests of the first pass; later
	// passes - traced or not - must reproduce them bit for bit.
	ref []string
}

func setupFH(sc scale, seed int64, prec solver.Precision, rec *spans) (*fhEnv, error) {
	e := &fhEnv{spec: fhSpec(sc, seed, prec)}
	g, err := lattice.New(e.spec.Dims)
	if err != nil {
		return nil, err
	}
	e.g = g
	sp := rec.begin(nil, "gauge", "ensemble", 0)
	e.ensemble, err = core.EnsembleFor(e.spec)
	sp.end()
	if err != nil {
		return nil, err
	}
	// One warm-up solve so the timed region does not pay the process's
	// first page faults and heap growth.
	c, err := e.newConfig(e.ensemble[0], nil, nil)
	if err != nil {
		return nil, err
	}
	if _, _, err := c.solve4D(prop.PointSource(g, [4]int{}, 0, 0), 0); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return e, nil
}

func (e *fhEnv) prepare(int) error { return nil }
func (e *fhEnv) close() error      { return nil }

func (e *fhEnv) corruptReference() {
	// The reference does not exist until the first pass has run; a
	// sentinel makes that pass keep it damaged.
	e.ref = []string{"corrupt"}
}

// timedOp64 and timedOp32 put a span around every application of the
// preconditioned operator, under whichever span the configuration has
// open: that is how a solve's time splits into operator time and the
// solver's own BLAS-1, reductions and precision traffic.
type timedOp64 struct {
	op solver.Linear
	c  *fhConfig
}

func (t timedOp64) Size() int { return t.op.Size() }
func (t timedOp64) Apply(dst, src []complex128) {
	sp := t.c.rec.begin(t.c.parent, "dirac", "schur64_apply", t.c.opID)
	t.op.Apply(dst, src)
	sp.end()
}
func (t timedOp64) ApplyDagger(dst, src []complex128) {
	sp := t.c.rec.begin(t.c.parent, "dirac", "schur64_apply_dagger", t.c.opID)
	t.op.ApplyDagger(dst, src)
	sp.end()
}

type timedOp32 struct {
	op solver.Linear32
	c  *fhConfig
}

func (t timedOp32) Size() int { return t.op.Size() }
func (t timedOp32) Apply(dst, src []complex64) {
	sp := t.c.rec.begin(t.c.parent, "dirac", "schur32_apply", t.c.opID)
	t.op.Apply(dst, src)
	sp.end()
}
func (t timedOp32) ApplyDagger(dst, src []complex64) {
	sp := t.c.rec.begin(t.c.parent, "dirac", "schur32_apply_dagger", t.c.opID)
	t.op.ApplyDagger(dst, src)
	sp.end()
}

// fhConfig is the solver stack of one gauge configuration, assembled as
// core's solve stage assembles it: boundary flip, Mobius operator,
// red-black preconditioning, prop.QuarkSolver with its single-precision
// mirror.
type fhConfig struct {
	e   *fhEnv
	rec *spans
	qs  *prop.QuarkSolver
	// What a traced pass solves with: qs's two operators behind timing
	// wrappers, and the open span their applications nest under.
	op64   solver.Linear
	op32   solver.Linear32
	parent *span
	opID   int64
}

func (e *fhEnv) newConfig(u *gauge.Field, rec *spans, root *span) (*fhConfig, error) {
	sp := rec.begin(root, "gauge", "clone_flip", 0)
	u = u.Clone() // the flip is in place and the ensemble outlives the pass
	u.FlipTimeBoundary()
	sp.end()
	sp = rec.begin(root, "dirac", "construct", 0)
	defer sp.end()
	eo, err := mobiusEO(u, e.spec.Params)
	if err != nil {
		return nil, err
	}
	c := &fhConfig{e: e, rec: rec, parent: root,
		qs: prop.NewQuarkSolver(eo, solver.Params{Tol: e.spec.Tol, Precision: e.spec.Prec})}
	if rec != nil {
		c.op64 = timedOp64{op: c.qs.EO, c: c}
		c.op32 = timedOp32{op: c.qs.Sloppy, c: c}
	}
	return c, nil
}

// solve4D is one operation. Untraced, it is the product's own
// prop.QuarkSolver.Solve4D. Traced, it is that function taken apart at
// its public seams - inject, prepare, mixed-precision CGNE, reconstruct,
// project - with a span around each; every traced solve is held to the
// untraced one bit for bit.
func (c *fhConfig) solve4D(b4 []complex128, opID int64) ([]complex128, solver.Stats, error) {
	if c.rec == nil {
		return c.qs.Solve4D(b4)
	}
	root, eo, ls := c.parent, c.qs.EO, c.qs.EO.M.Ls
	c.opID = opID
	sp := c.rec.begin(root, "prop", "inject5d", opID)
	b5 := prop.Inject5D(b4, ls)
	sp.end()
	sp = c.rec.begin(root, "prop", "prepare_source", opID)
	bhat, etaOdd := eo.PrepareSource(b5)
	sp.end()

	sp = c.rec.begin(root, "solver", "cgne_mixed", opID)
	c.parent = sp
	xe, st, err := solver.CGNEMixed(context.Background(), c.op64, c.op32, bhat, c.qs.Par)
	c.parent = root
	sp.end()
	if err != nil {
		return nil, st, err
	}

	sp = c.rec.begin(root, "prop", "reconstruct", opID)
	psi5 := eo.Reconstruct(xe, etaOdd)
	sp.end()
	sp = c.rec.begin(root, "prop", "project4d", opID)
	q := prop.Project4D(psi5, ls)
	sp.end()
	return q, st, nil
}

// op runs and checks one operation and appends it to the pass.
func (c *fhConfig) op(p *passResult, idx int, b4 []complex128) ([]complex128, error) {
	t0 := time.Now()
	q, st, err := c.solve4D(b4, int64(idx+1))
	p.ops = append(p.ops, time.Since(t0))
	p.addSolve(st)
	if err != nil {
		p.fail("op %d: %v", idx, err)
		return nil, err
	}
	digest := digestComplex(q)
	switch {
	case !st.Converged || !(st.TrueResidual <= c.e.spec.Tol):
		p.fail("op %d: residual %.3g above tol %.1g (converged=%v)", idx, st.TrueResidual, c.e.spec.Tol, st.Converged)
	case idx < len(c.e.ref) && c.e.ref[idx] != digest:
		p.fail("op %d: solution differs from the reference pass", idx)
	}
	p.digests = append(p.digests, digest)
	return q, nil
}

// pass runs the campaign. An untraced pass runs it twice: first whole,
// through core.RunReal, which is the pass's time-to-solution and
// allocation (wall_s, alloc_mb); then one operation at a time through
// prop.QuarkSolver.Solve4D, for the operation latencies and the
// per-operation bit-references, with the contractions and the analysis
// that turn the solutions into the same fingerprint. A traced pass is
// RunReal's call order re-composed from public functions with a span
// around each call, ensemble generation included.
func (e *fhEnv) pass(i int, rec *spans) (*passResult, error) {
	p := newPassResult()
	ensemble := e.ensemble
	product := ""
	if rec == nil {
		var res *core.RealResult
		var err error
		p.wall, p.allocBytes, err = measure(func() (err error) {
			res, err = core.RunReal(e.spec)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("core.RunReal: %w", err)
		}
		product = campaignFingerprint(e.spec, res.C2, res.CFH)
	}
	root := rec.begin(nil, rootLayer, "campaign", 0)
	defer root.end()
	if rec != nil {
		sp := rec.begin(root, "gauge", "ensemble", 0)
		var err error
		ensemble, err = core.EnsembleFor(e.spec)
		sp.end()
		if err != nil {
			return nil, err
		}
	}

	camp := core.NewCampaign(e.spec)
	for ci, u := range ensemble {
		c, err := e.newConfig(u, rec, root)
		if err != nil {
			return nil, err
		}
		sp := rec.begin(root, "prop", "alloc", 0)
		base, fh := prop.NewPropagator(e.g), prop.NewPropagator(e.g)
		seq := make([]complex128, e.g.Vol*dirac.SpinorLen)
		sp.end()
		for j := 0; j < prop.NComp; j++ {
			sp := rec.begin(root, "prop", "point_source", 0)
			b4 := prop.PointSource(e.g, [4]int{}, j/3, j%3)
			sp.end()
			q, err := c.op(p, ci*2*prop.NComp+j, b4)
			if err != nil {
				return p, nil
			}
			base.Col[j] = q
		}
		gamma := linalg.AxialGamma()
		for j := 0; j < prop.NComp; j++ {
			sp := rec.begin(root, "prop", "spinmul", 0)
			prop.SpinMul(seq, base.Col[j], gamma)
			sp.end()
			q, err := c.op(p, ci*2*prop.NComp+prop.NComp+j, seq)
			if err != nil {
				return p, nil
			}
			fh.Col[j] = q
		}
		sp = rec.begin(root, "contract", "proton2pt", 0)
		c2 := contract.Real(contract.Proton2pt(base, base, 0))
		p.sample("contract.proton2pt_ms", sp.end().Seconds()*1e3)
		sp = rec.begin(root, "contract", "fh3pt", 0)
		cfh := contract.Real(contract.ProtonFH3pt(base, base, fh, fh, 0))
		p.sample("contract.fh3pt_ms", sp.end().Seconds()*1e3)
		camp.C2[ci], camp.CFH[ci] = c2, cfh
	}

	sp := rec.begin(root, "core", "analysis", 0)
	geff, _, err := camp.Geff()
	p.fingerprint = camp.Fingerprint()
	p.sample("core.analysis_ms", sp.end().Seconds()*1e3)
	if err != nil {
		p.problems = append(p.problems, err.Error())
	}
	for t, v := range geff {
		if math.IsInf(v, 0) {
			p.problems = append(p.problems, fmt.Sprintf("g_eff(%d) is infinite", t))
		}
	}
	if rec == nil && p.fingerprint != product {
		p.problems = append(p.problems, fmt.Sprintf("core.RunReal fingerprint %.12s differs from the per-operation campaign's %.12s", product, p.fingerprint))
		p.fingerprint = product
	}

	if i == 0 && len(e.ref) == 0 {
		e.ref = p.digests
	}
	return p, nil
}

// verify holds one solution to the unpreconditioned operator, so the
// residual does not rest on the solver's word alone.
func (e *fhEnv) verify() []string {
	u := e.ensemble[0].Clone()
	u.FlipTimeBoundary()
	eo, err := mobiusEO(u, e.spec.Params)
	if err != nil {
		return []string{err.Error()}
	}
	qs := prop.NewQuarkSolver(eo, solver.Params{Tol: e.spec.Tol, Precision: e.spec.Prec})
	b4 := prop.PointSource(e.g, [4]int{}, 0, 0)
	psi5, _, err := qs.Solve5D(b4)
	if err != nil {
		return []string{err.Error()}
	}
	b5 := prop.Inject5D(b4, eo.M.Ls)
	r := make([]complex128, len(b5))
	eo.M.Apply(r, psi5)
	linalg.Axpy(-1, b5, r, 0)
	if rel := linalg.Norm(r, 0) / linalg.Norm(b5, 0); !(rel <= unprecondSlack*e.spec.Tol) {
		return []string{fmt.Sprintf("unpreconditioned residual %.3g above %g x tol", rel, float64(unprecondSlack))}
	}
	return nil
}

// mobiusEO builds the preconditioned Mobius operator on a
// boundary-flipped gauge field.
func mobiusEO(u *gauge.Field, par dirac.MobiusParams) (*dirac.MobiusEO, error) {
	m, err := dirac.NewMobius(u, par)
	if err != nil {
		return nil, err
	}
	return dirac.NewMobiusEO(m)
}

// campaignFingerprint digests a campaign's correlators the way every
// campaign driver does.
func campaignFingerprint(spec core.RealConfig, c2, cfh [][]float64) string {
	camp := core.NewCampaign(spec)
	for i := range c2 {
		camp.C2[i], camp.CFH[i] = c2[i], cfh[i]
	}
	return camp.Fingerprint()
}

// unprecondSlack is how far the residual of the full 5-D system may sit
// above the tolerance the preconditioned system was solved to: the Schur
// complement's conditioning separates the two by a small factor.
const unprecondSlack = 10

func (e *fhEnv) layerMetrics(m metricSet, d *tracedData, host hostInfo) error {
	m["gauge.ensemble_s"] = d.perPass["gauge.ensemble"].busy.Seconds()
	m["gauge.sweeps"] = float64(e.spec.ThermSweeps + e.spec.NConfigs*e.spec.GapSweeps)
	solverMetrics(m, d.first)
	return probeMobius(m, host, e.spec, e.ensemble[0])
}

// digestComplex is the SHA-256 of the exact bit patterns of v.
func digestComplex(v []complex128) string {
	buf := make([]byte, 0, 16*len(v))
	for _, z := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(z)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(z)))
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf))
}

// digestStrings folds an ordered list of digests into one.
func digestStrings(parts []string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(parts, "\n"))))
}
