package prop

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"femtoverse/internal/dirac"
	"femtoverse/internal/linalg"
	"femtoverse/internal/obs"
	"femtoverse/internal/solver"
)

// A propagator is twelve independent solves against one gauge field, and
// an FH propagator twelve more: the batch is where they meet the cores.
// Its systems are taken, lowest index first and two at a time, by lanes -
// the calling goroutine, always, plus a helper goroutine for every core
// the process has idle. A lane solves its pair in lock-step
// (solver.CGNEMixedLockStep), both systems through each pass of the
// operator, on its own view of the operator pair with a solver workspace
// per system, so a system is solved by the same arithmetic whichever lane
// takes it and whichever partner it has, and what is kept of each solution
// is filed by source index: nothing downstream can tell how many lanes
// ran. A single solve is a batch of one. DESIGN.md, "Propagator lanes",
// has the reasoning.

// lane is what one goroutine of a batch solves with. Lane 0 is the
// caller's and works on the QuarkSolver's own operators; helper lanes work
// on views of them. Lanes live as long as their QuarkSolver, so the
// second batch of a configuration reuses the scratch of the first.
type lane struct {
	eo     *dirac.MobiusEO
	sloppy *dirac.MobiusEO32
	// One slot per system in flight, and the systems the drive solves.
	slots [2]slot
	sys   [2]solver.System

	// What the lane has done since it was last folded into its
	// QuarkSolver's totals.
	iters, solves, restarts int
	flops                   int64

	// Under batch.mu: the systems in flight (-1 for none) and the cancels
	// of the contexts the lane solves them under.
	cur    [2]int
	cancel [2]context.CancelFunc
}

// slot is the scratch of one system in flight on a lane: its solver
// workspace, the FH source under construction, and the 5-D source, the
// even-odd reduction's half fields and the reconstructed 5-D solution,
// each made on first use. Only the even solution and what the batch's
// caller keeps of the 5-D one are made afresh.
type slot struct {
	ws                     solver.Workspace
	seq                    []complex128
	b5, bhat, etaOdd, full []complex128
}

// prepare reduces the 4-D source b4 to the even Schur system in slot s's
// fields: inject, then PrepareSourceInto.
func (l *lane) prepare(s *slot, b4 []complex128) {
	if len(b4) != l.eo.M.W.G.Vol*dirac.SpinorLen {
		panic("prop: source size mismatch")
	}
	if s.b5 == nil {
		n := l.eo.HalfSize()
		s.b5, s.bhat, s.etaOdd, s.full = make([]complex128, l.eo.M.Size()), make([]complex128, n), make([]complex128, n), make([]complex128, l.eo.M.Size())
	}
	inject5D(s.b5, b4, l.eo.M.Ls)
	l.eo.PrepareSourceInto(s.bhat, s.etaOdd, s.b5)
}

// count adds a solve to the lane's totals and wraps its error.
func (l *lane) count(st solver.Stats, err error) error {
	l.iters += st.Iterations
	l.flops += st.Flops
	l.solves++
	l.restarts += st.Restarts
	if err != nil {
		return fmt.Errorf("prop: component solve failed: %w", err)
	}
	return nil
}

// solve solves the first n of the sources b4 on this lane - a pair in
// lock-step, or one alone - each under its own context and in its own
// slot, and returns for each what keep makes of its 5-D solution, or its
// error, and its stats.
func (l *lane) solve(ctx [2]context.Context, b4 [2][]complex128, n int, par solver.Params, keep keepFunc) (q [2][]complex128, st [2]solver.Stats, err [2]error) {
	sys := l.sys[:n]
	for k := range sys {
		s := &l.slots[k]
		l.prepare(s, b4[k])
		sys[k] = solver.System{Ctx: ctx[k], WS: &s.ws, B: s.bhat}
	}
	solver.CGNEMixedLockStep(l.eo, l.sloppy, par, sys)
	for k := 0; k < n; k++ {
		st[k] = sys[k].Stats
		if err[k] = l.count(st[k], sys[k].Err); err[k] == nil {
			s := &l.slots[k]
			l.eo.ReconstructInto(s.full, sys[k].X, s.etaOdd)
			q[k] = keep(s.full, l.eo.M.Ls)
		}
	}
	return q, st, err
}

// keepFunc makes what a batch's caller keeps of a system's 5-D solution
// psi5, which lives in the lane's scratch only until the lane's next
// system: Project4D, or clone5D.
type keepFunc func(psi5 []complex128, ls int) []complex128

// clone5D keeps the whole 5-D solution.
func clone5D(psi5 []complex128, _ int) []complex128 { return slices.Clone(psi5) }

// lane returns lane i of the solver, building the lanes up to it on first
// use.
func (qs *QuarkSolver) lane(i int) *lane {
	for len(qs.lanes) <= i {
		l := &lane{eo: qs.EO, sloppy: qs.Sloppy, cur: [2]int{-1, -1}}
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
	source func(j int, l *lane, slot int) []complex128
	keep   keepFunc
	out    [][]complex128
	stats  []solver.Stats
	wg     sync.WaitGroup // the helper lanes

	mu     sync.Mutex
	lanes  []*lane // the lanes running, the caller's first
	next   int     // the next system to hand out
	failAt int     // the lowest failed system; len(out) while there is none
	err    error   // its error
}

// addLanes is the one place the number of lanes is decided. The caller
// runs it before each pair it takes: a helper lane is started for every
// core linalg.TryEnterLane finds idle, up to one lane per pair of systems
// not yet handed out. Nothing waits here - a core that is busy now is
// asked for again at the caller's next pair, which is how a configuration
// still solving picks up the core its sibling just freed.
func (b *batch) addLanes() {
	b.mu.Lock()
	pairs := (b.failAt - b.next + 1) / 2
	b.mu.Unlock()
	for len(b.lanes) < pairs && linalg.TryEnterLane() {
		i := len(b.lanes)
		l := b.qs.lane(i)
		l.cur = [2]int{-1, -1}
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

// run is the life of lane i in the batch: take pairs until there are none
// left to take. Each slot solves under a context of its own, so that a
// failure elsewhere can cancel one system of a pair and not the other.
func (b *batch) run(l *lane, i int) {
	var ctx [2]context.Context
	var cancel [2]context.CancelFunc
	for k := range ctx {
		ctx[k], cancel[k] = context.WithCancel(b.ctx)
		defer cancel[k]()
	}
	par := b.par
	par.Obs = par.Obs.Lane(i)
	for {
		if i == 0 {
			b.addLanes()
		}
		js, n := b.take(l, cancel)
		if n == 0 {
			return
		}
		var src [2][]complex128
		for k := 0; k < n; k++ {
			src[k] = b.source(js[k], l, k)
		}
		q, st, errs := l.solve(ctx, src, n, par, b.keep)
		failed := false
		for k := 0; k < n; k++ {
			b.stats[js[k]] = st[k]
			if errs[k] != nil {
				b.fail(js[k], errs[k])
				failed = true
				continue
			}
			b.out[js[k]] = q[k]
		}
		if failed {
			return
		}
	}
}

// take hands lane l the next n systems - two, or the last one. Once a
// system has failed nothing more is handed out: n is 0.
func (b *batch) take(l *lane, cancel [2]context.CancelFunc) (js [2]int, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	l.cur, l.cancel = [2]int{-1, -1}, cancel
	for n < 2 && b.next < b.failAt {
		l.cur[n] = b.next
		b.next++
		n++
	}
	return l.cur, n
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
		for k, c := range l.cur {
			if c > b.failAt {
				l.cancel[k]()
			}
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
	out, _, err := qs.solveBatch(ctx, len(sources), func(j int, _ *lane, _ int) []complex128 { return sources[j] }, Project4D)
	return out, err
}

// solveBatch is SolveBatchCtx over sources made on demand, keeping of
// each solution what keep makes of it, and reporting each system's stats:
// source(j, l, slot) is called on the lane about to solve system j and may
// build the source in that lane's scratch for the slot the system takes.
// The stats are returned on failure too, for every system that finished.
func (qs *QuarkSolver) solveBatch(ctx context.Context, k int, source func(j int, l *lane, slot int) []complex128, keep keepFunc) ([][]complex128, []solver.Stats, error) {
	l0 := qs.lane(0)
	l0.cur = [2]int{-1, -1}
	b := &batch{qs: qs, ctx: ctx, par: qs.scoped(ctx), source: source, keep: keep,
		out: make([][]complex128, k), stats: make([]solver.Stats, k), lanes: []*lane{l0}, failAt: k}
	// The caller is lane 0. It counts against the process budget for as
	// long as it is in here, takes pairs like any lane, and before each
	// one looks for idle cores to put helpers on; it never waits for a
	// helper to start, only, at the end, for those that did to finish.
	linalg.EnterLane()
	defer linalg.LeaveLane()
	b.run(l0, 0)
	b.wg.Wait()
	qs.fold()
	if b.err != nil {
		return nil, b.stats, b.err
	}
	return b.out, b.stats, nil
}
