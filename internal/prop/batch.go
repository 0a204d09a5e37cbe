package prop

import (
	"context"
	"fmt"
	"sync"

	"femtoverse/internal/dirac"
	"femtoverse/internal/linalg"
	"femtoverse/internal/obs"
	"femtoverse/internal/solver"
)

// A propagator is twelve independent solves against one gauge field, and
// an FH propagator twelve more: the batch is where they meet the cores.
// Its systems are taken, lowest index first, by lanes - the calling
// goroutine, always, plus a helper goroutine for every core the process
// has idle. Each lane solves on its own view of the operator pair with its
// own solver workspace, so a system is solved by the same arithmetic
// whichever lane takes it, and the solutions are filed by source index:
// nothing downstream can tell how many lanes ran. DESIGN.md, "Propagator
// lanes", has the reasoning.

// lane is what one goroutine of a batch solves with. Lane 0 is the
// caller's and works on the QuarkSolver's own operators; helper lanes work
// on views of them. Lanes live as long as their QuarkSolver, so the
// second batch of a configuration reuses the scratch of the first.
type lane struct {
	eo     *dirac.MobiusEO
	sloppy *dirac.MobiusEO32
	ws     solver.Workspace
	seq    []complex128 // the FH source under construction, made on first use

	// What the lane has done since it was last folded into its
	// QuarkSolver's totals.
	iters, solves, restarts int
	flops                   int64

	// Under batch.mu: the system in flight (-1 for none) and the cancel of
	// the context the lane solves under.
	cur    int
	cancel context.CancelFunc
}

// setWidth narrows the lane's kernels to the split width of one of lanes
// concurrent lanes and returns par with its BLAS-1 width narrowed alike.
func (l *lane) setWidth(par solver.Params, lanes int) solver.Params {
	w := 0 // alone, the operators defer to their shared configuration
	if lanes > 1 {
		w = linalg.LaneWidth(l.eo.M.W.Workers, lanes)
	}
	l.eo.Workers = w
	if l.sloppy != nil {
		l.sloppy.Workers = w
	}
	par.Workers = linalg.LaneWidth(par.Workers, lanes)
	return par
}

// solve5D is one system on this lane: inject, reduce to the even Schur
// system, mixed-precision CGNE, reconstruct.
func (l *lane) solve5D(ctx context.Context, b4 []complex128, par solver.Params) ([]complex128, solver.Stats, error) {
	if len(b4) != l.eo.M.W.G.Vol*dirac.SpinorLen {
		panic("prop: Solve5D source size mismatch")
	}
	b5 := Inject5D(b4, l.eo.M.Ls)
	bhat, etaOdd := l.eo.PrepareSource(b5)
	xe, st, err := l.ws.CGNEMixed(ctx, l.eo, l.sloppy, bhat, par)
	l.iters += st.Iterations
	l.flops += st.Flops
	l.solves++
	l.restarts += st.Restarts
	if err != nil {
		return nil, st, fmt.Errorf("prop: component solve failed: %w", err)
	}
	return l.eo.Reconstruct(xe, etaOdd), st, nil
}

// lane returns lane i of the solver, building the lanes up to it on first
// use.
func (qs *QuarkSolver) lane(i int) *lane {
	for len(qs.lanes) <= i {
		l := &lane{eo: qs.EO, sloppy: qs.Sloppy}
		if len(qs.lanes) > 0 {
			l.eo = qs.EO.View()
			if qs.Sloppy != nil {
				l.sloppy = qs.Sloppy.View()
			}
		}
		qs.lanes = append(qs.lanes, l)
	}
	return qs.lanes[i]
}

// fold moves what the lanes have done into the solver's totals.
func (qs *QuarkSolver) fold() {
	for _, l := range qs.lanes {
		qs.TotalIterations += l.iters
		qs.TotalFlops += l.flops
		qs.Solves += l.solves
		qs.TotalRestarts += l.restarts
		l.iters, l.flops, l.solves, l.restarts = 0, 0, 0, 0
	}
}

// scoped returns the solver's parameters with the trace scope of ctx
// adopted: the job runtime stamps each attempt's worker lane into the task
// context, and solver spans recorded on it nest under the attempt span.
func (qs *QuarkSolver) scoped(ctx context.Context) solver.Params {
	par := qs.Par
	if sc := obs.ScopeFrom(ctx); sc.Enabled() {
		par.Obs = sc
	}
	return par
}

// batch is one solveBatch call in flight.
type batch struct {
	qs     *QuarkSolver
	ctx    context.Context
	par    solver.Params
	source func(j int, l *lane) []complex128
	out    [][]complex128
	wg     sync.WaitGroup // the helper lanes

	mu     sync.Mutex
	lanes  []*lane // the lanes running, the caller's first
	next   int     // the next system to hand out
	failAt int     // the lowest failed system; len(out) while there is none
	err    error   // its error
}

// addLanes is the one place the number of lanes is decided. The caller
// runs it before each system it takes: a helper lane is started for every
// core linalg.TryEnterLane finds idle, up to one lane per system not yet
// handed out. Nothing waits here - a core that is busy now is asked for
// again at the caller's next system, which is how a configuration still
// solving picks up the core its sibling just freed.
func (b *batch) addLanes() {
	b.mu.Lock()
	left := b.failAt - b.next
	b.mu.Unlock()
	for len(b.lanes) < left && linalg.TryEnterLane() {
		i := len(b.lanes)
		l := b.qs.lane(i)
		l.cur = -1
		b.mu.Lock()
		b.lanes = append(b.lanes, l)
		b.mu.Unlock()
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			defer linalg.LeaveLane()
			b.run(l, i)
		}()
	}
}

// run is the life of lane i in the batch: take systems until there are
// none left to take.
func (b *batch) run(l *lane, i int) {
	ctx, cancel := context.WithCancel(b.ctx)
	defer cancel()
	par := b.par
	par.Obs = par.Obs.Lane(i)
	for {
		if i == 0 {
			b.addLanes()
		}
		j, lanes, ok := b.take(l, cancel)
		if !ok {
			return
		}
		lpar := l.setWidth(par, lanes)
		psi5, _, err := l.solve5D(ctx, b.source(j, l), lpar)
		if err != nil {
			b.fail(j, err)
			return
		}
		b.out[j] = Project4D(psi5, l.eo.M.Ls)
	}
}

// take hands lane l the next system and tells it how many lanes it shares
// the cores with. Once a system has failed nothing more is handed out.
func (b *batch) take(l *lane, cancel context.CancelFunc) (j, lanes int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.next >= b.failAt {
		l.cur = -1
		return 0, 0, false
	}
	l.cur, l.cancel = b.next, cancel
	b.next++
	return l.cur, len(b.lanes), true
}

// fail records that system j failed and cancels every system after the
// lowest failure so far. Systems before it run on: the batch reports its
// lowest failing system, which is where the serial loop would have
// stopped, whatever order the lanes got there in. A system cancelled here
// fails in turn, but behind the failure that cancelled it, and changes
// nothing.
func (b *batch) fail(j int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if j < b.failAt {
		b.failAt, b.err = j, fmt.Errorf("prop: system %d of %d: %w", j, len(b.out), err)
	}
	for _, l := range b.lanes {
		if l.cur > b.failAt {
			l.cancel()
		}
	}
}

// SolveBatchCtx solves the domain-wall system for each of the 4-D sources
// and returns the projected 4-D quark fields in source order: Solve4D
// k times over, bit for bit, on as many cores as the process has idle. On
// failure it returns the error of the lowest-index system that failed,
// after every lane has stopped. Like every QuarkSolver method it is not
// for concurrent use on one QuarkSolver; concurrent batches on separate
// solvers share the cores between them.
func (qs *QuarkSolver) SolveBatchCtx(ctx context.Context, sources [][]complex128) ([][]complex128, error) {
	return qs.solveBatch(ctx, len(sources), func(j int, _ *lane) []complex128 { return sources[j] })
}

// solveBatch is SolveBatchCtx over sources made on demand: source(j, l)
// is called on the lane about to solve system j and may build the source
// in that lane's scratch.
func (qs *QuarkSolver) solveBatch(ctx context.Context, k int, source func(j int, l *lane) []complex128) ([][]complex128, error) {
	l0 := qs.lane(0)
	l0.cur = -1
	b := &batch{qs: qs, ctx: ctx, par: qs.scoped(ctx), source: source,
		out: make([][]complex128, k), lanes: []*lane{l0}, failAt: k}
	// The caller is lane 0. It counts against the process budget for as
	// long as it is in here, takes systems like any lane, and before each
	// one looks for idle cores to put helpers on; it never waits for a
	// helper to start, only, at the end, for those that did to finish.
	linalg.EnterLane()
	defer linalg.LeaveLane()
	b.run(l0, 0)
	b.wg.Wait()
	l0.setWidth(qs.Par, 1) // qs.EO is the caller's again, at its configured width
	qs.fold()
	if b.err != nil {
		return nil, b.err
	}
	return b.out, nil
}
