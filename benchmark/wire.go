package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"femtoverse/internal/dirac"
	"femtoverse/internal/domain"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/obs"
	"femtoverse/internal/solver"
	"femtoverse/internal/wire"
)

// wireMass is the Wilson mass of the distributed solves, the value the
// product's own distributed experiment uses.
const wireMass = 0.1

// wireWorkload is a batch of double-precision Wilson CGNE solves over a
// 2-rank wire.Session whose workers are wire.Serve goroutines on
// localhost TCP. One operation is one solve.
func wireWorkload() workload {
	return workload{
		name:  "wire-2rank",
		op:    "Wilson CGNE solve over a 2-rank wire.Session",
		setup: setupWire,
	}
}

type wireEnv struct {
	g    *lattice.Geometry
	u    *gauge.Field
	flat *dirac.Wilson
	grid [lattice.NDim]int
	rhs  [][]complex128
	// ref are the in-process solutions every wire solve must equal
	// bitwise; refIters their iteration counts; refTimes their latencies.
	ref      [][]complex128
	refIters []int
	refTimes []time.Duration

	sess    *wire.Session
	reg     *obs.Registry
	workers sync.WaitGroup
	ckpt    string
	// closing is set before the session hangs up; died counts workers
	// that left their Serve loop before that, lastExit is the last one's
	// exit status.
	closing  atomic.Bool
	died     atomic.Int64
	lastExit atomic.Value

	setupAcc map[string]acc
}

func setupWire(sc scale, seed int64, dir string, rec *spans) (_ env, err error) {
	before := rec.totals()
	rng := rand.New(rand.NewSource(seed))
	dims, nRHS := [lattice.NDim]int{4, 4, 4, 8}, 12
	if sc.smoke {
		dims, nRHS = [lattice.NDim]int{2, 2, 2, 4}, 4
	}
	e := &wireEnv{grid: [lattice.NDim]int{1, 1, 1, 2}, reg: obs.NewRegistry(), ckpt: filepath.Join(dir, "subs.fhio")}
	if e.g, err = lattice.New(dims); err != nil {
		return nil, err
	}
	sp := rec.begin(nil, "gauge", "ensemble", 0)
	e.u = gauge.NewWeak(e.g, rng.Int63(), 0.3)
	sp.end()
	e.flat = dirac.NewWilson(e.u, wireMass)

	// In-process reference solves: the bit-reference of every operation,
	// and the baseline of wire.slowdown_x.
	for k := 0; k < nRHS; k++ {
		b := make([]complex128, e.flat.Size())
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		e.rhs = append(e.rhs, b)
		t0 := time.Now()
		root := rec.begin(nil, "solver", "cgne_inproc", int64(k+1))
		var op solver.Linear = e.flat
		if rec != nil {
			op = timedLinear{op: e.flat, rec: rec, layer: "dirac", name: "wilson_apply", parent: root, opID: int64(k + 1)}
		}
		x, st, err := solver.CGNE(context.Background(), op, b, solver.Params{Tol: tol, FlopsPerApply: e.flat.Flops()})
		root.end()
		if err != nil {
			return nil, fmt.Errorf("in-process reference solve %d: %w", k, err)
		}
		e.refTimes = append(e.refTimes, time.Since(t0))
		e.ref = append(e.ref, x)
		e.refIters = append(e.refIters, st.Iterations)
	}

	sp = rec.begin(nil, "wire", "session_start", 0)
	e.sess, err = wire.NewSession(e.u, wire.Options{
		Grid: e.grid, Mass: wireMass,
		CheckpointPath: e.ckpt,
		Metrics:        e.reg,
		Spawn: func(addr string) error {
			e.workers.Add(1)
			go func() {
				defer e.workers.Done()
				err := wire.Serve(addr, wire.WorkerOptions{})
				// A worker that returns once the session is closing has
				// been hung up on, which is its normal teardown; one that
				// returns earlier died under the benchmark.
				if !e.closing.Load() {
					e.died.Add(1)
					e.lastExit.Store(fmt.Sprint(err))
				}
			}()
			return nil
		},
	})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("wire session: %w", err)
	}
	e.setupAcc = rec.since(before)
	return e, nil
}

func (e *wireEnv) prepare(int) error { return nil }

// close hangs up and waits for the worker goroutines to leave their
// Serve loops.
func (e *wireEnv) close() error {
	e.closing.Store(true)
	e.sess.Close()
	done := make(chan struct{})
	go func() {
		e.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("wire workers still running 30s after session close")
	}
}

func (e *wireEnv) corruptReference() {
	e.ref[0][0] += 1
}

// timedLinear puts a span around every application of a double-precision
// operator.
type timedLinear struct {
	op          solver.Linear
	rec         *spans
	layer, name string
	parent      *span
	opID        int64
}

func (t timedLinear) Size() int { return t.op.Size() }
func (t timedLinear) Apply(dst, src []complex128) {
	sp := t.rec.begin(t.parent, t.layer, t.name, t.opID)
	t.op.Apply(dst, src)
	sp.end()
}
func (t timedLinear) ApplyDagger(dst, src []complex128) {
	sp := t.rec.begin(t.parent, t.layer, t.name+"_dagger", t.opID)
	t.op.ApplyDagger(dst, src)
	sp.end()
}

func (e *wireEnv) pass(_ int, rec *spans) (*passResult, error) {
	root := rec.begin(nil, rootLayer, "batch", 0)
	defer root.end()
	p := newPassResult()
	c0 := e.reg.Snapshot()
	var digests []string
	for k, b := range e.rhs {
		opID := int64(k + 1)
		var op solver.Linear = e.sess
		sp := rec.begin(root, "solver", "cgne", opID)
		if rec != nil {
			op = timedLinear{op: e.sess, rec: rec, layer: "wire", name: "apply", parent: sp, opID: opID}
		}
		t0 := time.Now()
		x, st, err := solver.CGNE(context.Background(), op, b, solver.Params{Tol: tol, FlopsPerApply: e.flat.Flops()})
		p.ops = append(p.ops, time.Since(t0))
		sp.end()
		p.addSolve(st)
		switch {
		case err != nil:
			p.fail("op %d: %v", k, err)
			continue
		case !st.Converged || !(st.TrueResidual <= tol):
			p.fail("op %d: residual %.3g above tol %.1g", k, st.TrueResidual, tol)
		case st.Iterations != e.refIters[k] || !equalBits(x, e.ref[k]):
			p.fail("op %d: wire solve differs from the in-process solve", k)
		}
		digests = append(digests, digestComplex(x))
	}
	p.fingerprint = digestStrings(digests)
	c1 := e.reg.Snapshot()
	for _, name := range []string{"wire.applies", "wire.halo_frames", "wire.halo_wire_bytes", "wire.recoveries", "wire.retries"} {
		v0, _ := c0.CounterValue(name)
		v1, _ := c1.CounterValue(name)
		p.counts[name] = float64(v1 - v0)
	}
	return p, nil
}

// verify recomputes one residual with the flat operator: the wire
// solution is checked against the operator, not only against another
// run of the same solver.
func (e *wireEnv) verify() []string {
	if n := e.died.Load(); n > 0 {
		return []string{fmt.Sprintf("%d wire workers exited mid-run, last with: %v", n, e.lastExit.Load())}
	}
	x, _, err := solver.CGNE(context.Background(), e.sess, e.rhs[0], solver.Params{Tol: tol})
	if err != nil {
		return []string{fmt.Sprintf("verification solve: %v", err)}
	}
	r := make([]complex128, len(x))
	e.flat.Apply(r, x)
	linalg.Axpy(-1, e.rhs[0], r, 0)
	if rel := linalg.Norm(r, 0) / linalg.Norm(e.rhs[0], 0); !(rel <= tol) {
		return []string{fmt.Sprintf("explicit residual %.3g above tol", rel)}
	}
	return nil
}

func (e *wireEnv) layerMetrics(m metricSet, d *tracedData, host hostInfo) error {
	first := d.first
	m["gauge.ensemble_s"] = e.setupAcc["gauge.ensemble"].busy.Seconds()
	m["wire.session_start_s"] = e.setupAcc["wire.session_start"].busy.Seconds()
	m["wire.inproc_solve_p50_s"] = median(seconds(e.refTimes))
	m["wire.slowdown_x"] = median(seconds(d.ops)) / m["wire.inproc_solve_p50_s"]

	// dirac on this workload is the in-process reference solves of the
	// traced set-up: the in-worker applications are out of reach from
	// outside the product.
	wa := e.setupAcc["dirac.wilson_apply"]
	wd := e.setupAcc["dirac.wilson_apply_dagger"]
	m["dirac.apply_calls"] = float64(wa.n + wd.n)
	m["dirac.apply_s"] = (wa.busy + wd.busy).Seconds()
	m["dirac.apply_share"] = (wa.busy + wd.busy).Seconds() / e.setupAcc["solver"].busy.Seconds()

	solverMetrics(m, first)
	applies := first.counts["wire.applies"]
	m["wire.apply_calls"] = applies
	m["wire.apply_us"] = d.perPass["wire"].busy.Seconds() / applies * 1e6
	m["wire.halo_frames"] = first.counts["wire.halo_frames"]
	m["wire.halo_wire_bytes"] = first.counts["wire.halo_wire_bytes"]
	m["wire.bytes_per_apply"] = first.counts["wire.halo_wire_bytes"] / applies
	m["wire.effective_halo_mbs"] = first.counts["wire.halo_wire_bytes"] / d.perPass["wire"].busy.Seconds() / 1e6
	m["wire.recoveries"] = first.counts["wire.recoveries"]

	// Kernel and decomposition probes on this workload's operator.
	n := e.flat.Size()
	src, dst := randomVec(n, 1), make([]complex128, n)
	gaugeBytes := int64(e.g.Vol) * lattice.NDim * 9 * 16
	flatUS := probeKernel(m, host, "wilson", func() { e.flat.Apply(dst, src) },
		e.flat.Flops(), 2*int64(n)*16+gaugeBytes, false)
	dist, err := domain.NewDist(e.u, e.grid, wireMass)
	if err != nil {
		return err
	}
	distUS := host.timePerCall(func() { dist.Apply(dst, src) }) * 1e6
	m["domain.apply_us"] = distUS
	m["domain.overhead_x"] = distUS / flatUS

	probeLinalg(m, host, n)
	if err := probeSolveAllocs(m, func() error {
		_, _, err := solver.CGNE(context.Background(), e.flat, e.rhs[0], solver.Params{Tol: tol})
		return err
	}); err != nil {
		return err
	}

	// The checkpoint the session wrote in set-up, written again under a
	// stopwatch.
	specs, err := domain.BuildSpecs(e.u, e.grid, wireMass)
	if err != nil {
		return err
	}
	path := e.ckpt + ".probe"
	t0 := time.Now()
	if err := wire.SaveCheckpoint(path, specs); err != nil {
		return err
	}
	m["hio.checkpoint_save_ms"] = time.Since(t0).Seconds() * 1e3
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["hio.checkpoint_bytes"] = float64(st.Size())
	return os.Remove(path)
}

// equalBits reports whether two vectors hold the same bit patterns.
func equalBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}
