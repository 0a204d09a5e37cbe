package core

import (
	"context"
	"fmt"

	"femtoverse/internal/cache"
	"femtoverse/internal/contract"
	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/linalg"
	"femtoverse/internal/obs"
	"femtoverse/internal/prop"
	jobrt "femtoverse/internal/runtime"
	"femtoverse/internal/solver"
)

// configProps holds the solved propagators of one gauge configuration,
// handed from the solve stage to the contraction stage.
type configProps struct {
	base, fh *prop.Propagator
	// restarts counts the solver's precision-escalation restarts across
	// this configuration's solves, surfaced in the runtime report.
	restarts int
	// iters and flops accumulate the solver work of this configuration's
	// 24 component solves, surfaced through the metrics registry.
	iters int
	flops int64
}

// solveConfig runs the full solve stage for one configuration: boundary
// flip, operator construction, a batch of 12 forward solves and a batch of
// 12 FH solves. It is the single compute path under every driver, which is
// what makes their outputs bit-for-bit comparable.
func solveConfig(ctx context.Context, cfg RealConfig, u *gauge.Field) (*configProps, error) {
	qs, err := quarkSolver(cfg, u)
	if err != nil {
		return nil, err
	}
	base, err := qs.ComputePointCtx(ctx, [4]int{0, 0, 0, 0})
	if err != nil {
		return nil, err
	}
	fh, err := qs.FHPropagatorCtx(ctx, base, linalg.AxialGamma())
	if err != nil {
		return nil, err
	}
	return &configProps{
		base: base, fh: fh,
		restarts: qs.TotalRestarts,
		iters:    qs.TotalIterations,
		flops:    qs.TotalFlops,
	}, nil
}

// quarkSolver flips u's time boundary in place and builds the spec's
// operator stack over it: Mobius, its red-black preconditioned form and
// the propagator solver under the spec's solver policy. Every solve in
// the repository that starts from a campaign spec builds its solver here.
func quarkSolver(spec RealConfig, u *gauge.Field) (*prop.QuarkSolver, error) {
	u.FlipTimeBoundary()
	m, err := dirac.NewMobius(u, spec.Params)
	if err != nil {
		return nil, err
	}
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		return nil, err
	}
	return prop.NewQuarkSolver(eo, solver.Params{Tol: spec.Tol, Precision: spec.Prec}), nil
}

// contractConfig runs the contraction stage: the proton two-point and FH
// three-point correlators from one configuration's propagators.
func contractConfig(p *configProps) (c2, cfh []float64) {
	c2 = contract.Real(contract.Proton2pt(p.base, p.base, 0))
	cfh = contract.Real(contract.ProtonFH3pt(p.base, p.base, p.fh, p.fh, 0))
	return c2, cfh
}

// ObsConfig carries the optional observability sinks a run threads into
// the job runtime and the solvers: a metrics registry for
// counters/gauges/histograms and a tracer for the Chrome-trace timeline.
// Both nil (the zero value) means fully uninstrumented execution.
type ObsConfig struct {
	Metrics *obs.Registry
	Trace   *obs.Tracer
}

// RunOptions is everything about a run that is not the physics: which
// executor walks the configurations and what is attached to it. None of
// it can change a correlator bit. The zero value is the plain sequential
// run.
type RunOptions struct {
	// Workers chooses the executor. 0 walks the configurations in order
	// on the calling goroutine: no pool, no report. N >= 1 hands the same
	// tasks to the job runtime with N solve workers (and N/2, at least
	// one, contract workers) - the mpi_jm co-scheduling pattern - and
	// returns its utilization report. Either way, whoever solves a
	// configuration may put its sibling component solves on cores the
	// process has idle (prop.QuarkSolver.SolveBatchCtx); with every core
	// taken by another configuration it solves them alone.
	Workers int
	// Journal, when non-nil, is the write-ahead log: every configuration
	// is appended the moment its correlators exist (cache hits included),
	// so a killed campaign loses only in-flight work.
	Journal *Journal
	// Budget and Preempt bound the allocation: the pool refuses
	// configurations whose calibrated estimate no longer fits the wall
	// clock and drains gracefully at expiry or on a notice through
	// Preempt (the SIGTERM landing path). Refused and stranded
	// configurations are the next allocation's work, not errors: such a
	// run returns a nil error with done < n, and the journal is forced
	// durable before it returns. Admission and drain live in the pool,
	// so a bounded run needs Workers >= 1.
	Budget  jobrt.Budget
	Preempt <-chan string
	// Obs attaches the metrics registry and tracer.
	Obs ObsConfig
	// Cache, when non-nil, is the content-addressed result store:
	// configurations already cached (by this campaign, another campaign
	// on the same store, or a previous process) are recorded before
	// admission without a solver iteration, and concurrent campaigns on
	// one store solve each configuration exactly once.
	Cache *cache.Cache
}

// Run measures up to n outstanding configurations, lowest index first,
// and returns how many it completed plus the job runtime's report (nil
// when Workers is 0 or nothing needed solving). It is the only run path:
// the per-configuration step - SolveConfigCached, then the journal
// append - is built once as a solve -> contract task pair, and
// opts.Workers only decides who executes the pairs. Configurations are
// independent, gauge fields are regenerated deterministically from the
// seed and every reduction inside a solve combines in a fixed order, so
// the correlators are bit-for-bit the same at every worker count, with or
// without a journal or a cache, and across any split into batches
// (the same Campaign run again, or a journal reopen in between).
func (c *Campaign) Run(ctx context.Context, n int, opts RunOptions) (done int, rep *jobrt.Report, err error) {
	if n <= 0 || c.Complete() {
		return 0, nil, nil
	}
	bounded := opts.Budget != (jobrt.Budget{}) || opts.Preempt != nil
	if bounded && opts.Workers < 1 {
		return 0, nil, fmt.Errorf("core: Budget and Preempt are enforced by the job pool; set Workers >= 1")
	}
	j := opts.Journal
	if j != nil {
		before := j.Checkpoints()
		defer func() {
			if bounded {
				if serr := j.Sync(); serr != nil && err == nil {
					err = serr
				}
			}
			if rep != nil {
				rep.JournalCheckpoints = j.Checkpoints() - before
			}
		}()
	}

	// Outstanding configurations in order, up to the batch size. Result-
	// cache hits are recorded (and journaled) here, before admission: a
	// cached configuration never becomes a task, so a fully warm batch
	// performs zero solver iterations and skips ensemble regeneration
	// entirely. The ctx check keeps a cancelled campaign from starting a
	// fresh batch.
	var picked []int
	for i := 0; i < c.Spec.NConfigs && done+len(picked) < n; i++ {
		if err := ctx.Err(); err != nil {
			return done, nil, err
		}
		if _, ok := c.C2[i]; ok {
			continue
		}
		if c2, cfh, ok := cacheLookup(opts.Cache, c.Spec, i); ok {
			if j != nil {
				if err := j.Append(i, c2, cfh); err != nil {
					return done, nil, fmt.Errorf("core: journal config %d: %w", i, err)
				}
			}
			c.C2[i], c.CFH[i] = c2, cfh
			done++
			continue
		}
		picked = append(picked, i)
	}
	if len(picked) == 0 {
		return done, nil, nil
	}
	configs, err := EnsembleFor(c.Spec)
	if err != nil {
		return done, nil, err
	}

	// meas[k] is filled in by solve task 2k and committed by contract
	// task 2k+1; the dependency edge (or the inline walk's order)
	// sequences the two. Only committed configurations are recorded, so
	// with a journal attached done never counts a configuration the
	// journal does not hold - a drain can land between the two tasks.
	meas := make([]struct {
		c2, cfh   []float64
		restarts  int
		committed bool
	}, len(picked))
	tasks := make([]jobrt.Task, 0, 2*len(picked))
	for k, i := range picked {
		u := configs[i]
		tasks = append(tasks, jobrt.Task{
			ID:    2 * k,
			Name:  fmt.Sprintf("solve cfg%04d", i),
			Class: jobrt.Solve,
			Cost:  1,
			Run: func(tctx context.Context) (interface{}, error) {
				// Solve and contraction are one step: with a store they
				// run inside its per-key singleflight, and without one
				// the same closure runs bare.
				c2, cfh, r, err := SolveConfigCached(tctx, c.Spec, i,
					func() (*gauge.Field, error) { return u, nil }, opts.Cache, opts.Obs.Metrics)
				if err != nil {
					return nil, fmt.Errorf("core: config %d: %w", i, err)
				}
				meas[k].c2, meas[k].cfh, meas[k].restarts = c2, cfh, r
				return nil, nil
			},
		}, jobrt.Task{
			ID:        2*k + 1,
			Name:      fmt.Sprintf("contract cfg%04d", i),
			Class:     jobrt.Contract,
			Cost:      0.05,
			DependsOn: []int{2 * k},
			Run: func(context.Context) (interface{}, error) {
				// Log before reporting success: if the append fails the
				// task fails, and on a crash the journal never claims
				// work it does not hold.
				if j != nil {
					if err := j.Append(i, meas[k].c2, meas[k].cfh); err != nil {
						return nil, fmt.Errorf("core: journal config %d: %w", i, err)
					}
				}
				meas[k].committed = true
				return nil, nil
			},
		})
	}

	// The campaign span brackets the whole batch on the control lane. On
	// the pool the runtime adds per-attempt spans on the worker lanes and
	// the solvers nest their CG spans under those via the attempt
	// context; inline, the solver spans land on the control lane itself.
	campScope := obs.NewScope(opts.Obs.Trace, 0, 0)
	campSpan := campScope.Begin("campaign", fmt.Sprintf("batch n=%d", len(picked)),
		map[string]interface{}{"configs": len(picked), "workers": opts.Workers})
	var runErr error
	if opts.Workers == 0 {
		runErr = runInline(obs.WithScope(ctx, campScope), tasks)
	} else {
		var report jobrt.Report
		_, report, runErr = jobrt.Run(ctx, jobrt.Config{
			SolveWorkers: opts.Workers,
			Budget:       opts.Budget,
			Preempt:      opts.Preempt,
			Metrics:      opts.Obs.Metrics,
			Trace:        opts.Obs.Trace,
		}, tasks)
		for k := range meas {
			report.SolverRestarts += meas[k].restarts
		}
		rep = &report
	}

	// Record whatever completed, even if some configuration failed; the
	// pre-admission cache hits already count.
	for k, i := range picked {
		if !meas[k].committed {
			continue
		}
		c.C2[i], c.CFH[i] = meas[k].c2, meas[k].cfh
		done++
	}
	campSpan.EndWith(map[string]interface{}{"done": done})
	return done, rep, runErr
}

// runInline is the Workers == 0 executor: the tasks in ID order (which
// satisfies every dependency edge) on the calling goroutine, stopping at
// the first failure. Cancellation is consulted before each configuration,
// not between a solve and the contract task that commits it: work that
// finished is kept.
func runInline(ctx context.Context, tasks []jobrt.Task) error {
	for _, t := range tasks {
		if len(t.DependsOn) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if _, err := t.Run(ctx); err != nil {
			return err
		}
	}
	return nil
}
