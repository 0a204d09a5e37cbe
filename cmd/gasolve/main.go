// Command gasolve runs the headline physics end to end on real lattices:
// it generates a quenched gauge ensemble, solves the Mobius domain-wall
// Dirac equation for forward and Feynman-Hellmann propagators, contracts
// the proton two-point and axial three-point functions, and prints the
// effective coupling curve - the complete production algorithm at laptop
// scale. With -synthetic it instead runs the a09m310-calibrated
// statistical campaign of Fig. 1 and reports gA and the neutron lifetime.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"femtoverse/internal/cache"
	"femtoverse/internal/core"
	"femtoverse/internal/dirac"
	"femtoverse/internal/obs"
	jobrt "femtoverse/internal/runtime"
	"femtoverse/internal/solver"
)

// obsSinks bundles the optional observability outputs selected on the
// command line. The zero value (no flags) is fully uninstrumented.
type obsSinks struct {
	cfg       core.ObsConfig
	tracePath string
}

// newObsSinks builds the sinks the flags asked for.
func newObsSinks(metrics bool, tracePath string) obsSinks {
	s := obsSinks{tracePath: tracePath}
	if metrics {
		s.cfg.Metrics = obs.NewRegistry()
	}
	if tracePath != "" {
		s.cfg.Trace = obs.NewTracer(nil)
	}
	return s
}

// printReport prints the runtime's utilization report when one exists,
// plus the live utilization timeline when metrics are on.
func (s obsSinks) printReport(rep *jobrt.Report) {
	if rep == nil {
		return
	}
	fmt.Println(rep)
	if s.cfg.Metrics != nil && len(rep.Timeline.Buckets) > 0 {
		fmt.Print(rep.Timeline.Render())
	}
}

// flush emits the metrics snapshot to stdout and the Chrome trace to the
// requested file once the campaign is over.
func (s obsSinks) flush() error {
	if s.cfg.Metrics != nil {
		fmt.Print(s.cfg.Metrics.Snapshot().Text())
	}
	if s.cfg.Trace != nil && s.tracePath != "" {
		f, err := os.Create(s.tracePath)
		if err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
		err = s.cfg.Trace.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
		fmt.Printf("trace written to %s (open in Perfetto or chrome://tracing)\n", s.tracePath)
	}
	return nil
}

// printCacheStats reports the result cache's hit economics after a run.
func printCacheStats(store *cache.Cache) {
	if store == nil {
		return
	}
	fmt.Printf("cache: %s\n", store.Stats())
}

// watchSignals installs the SIGINT/SIGTERM handler. In graceful mode the
// first two signals are forwarded on the returned preemption channel -
// the job pool drains on the first and hard-cancels in-flight work on the
// second - and any further signal kills the process. Outside graceful
// mode the first signal cancels the campaign context and the second kills
// the process: Ctrl-C is never ignored.
func watchSignals(cancel context.CancelFunc, graceful bool) <-chan string {
	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	preempt := make(chan string, 2)
	go func() {
		n := 0
		for s := range sigs {
			n++
			switch {
			case graceful && n == 1:
				fmt.Fprintf(os.Stderr, "gasolve: %v: draining (again to cancel in-flight work)\n", s)
				preempt <- s.String()
			case graceful && n == 2:
				fmt.Fprintf(os.Stderr, "gasolve: %v: cancelling in-flight work\n", s)
				preempt <- s.String()
			case !graceful && n == 1:
				fmt.Fprintf(os.Stderr, "gasolve: %v: cancelling (again to exit immediately)\n", s)
				cancel()
			default:
				os.Exit(130)
			}
		}
	}()
	return preempt
}

func main() {
	var (
		synthetic  = flag.Bool("synthetic", false, "run the Fig. 1 statistical campaign instead of real solves")
		nSamples   = flag.Int("samples", 784, "synthetic: FH sample count")
		factor     = flag.Int("tradfactor", 10, "synthetic: traditional oversampling factor")
		l          = flag.Int("l", 4, "real: spatial extent")
		t          = flag.Int("t", 8, "real: temporal extent")
		ls         = flag.Int("ls", 6, "real: fifth-dimension extent")
		nCfg       = flag.Int("configs", 3, "real: gauge configurations")
		mass       = flag.Float64("mass", 0.1, "real: bare quark mass")
		seed       = flag.Int64("seed", 11, "RNG seed")
		batch      = flag.Int("batch", 0, "journal mode: measure at most this many configurations this invocation (0 = every remaining one)")
		workers    = flag.Int("workers", 0, "solve configurations concurrently on this many workers (0 = sequential); results are bit-for-bit identical either way")
		journal    = flag.String("journal", "", "campaign write-ahead journal: resume if it exists, run the remaining configurations (up to -batch), log each as it finishes")
		walltime   = flag.Duration("walltime", 0, "journal mode: allocation wall clock; the runtime refuses work that cannot finish and drains at expiry (0 = unbounded)")
		drainGrace = flag.Duration("drain-grace", 10*time.Second, "journal mode: how long in-flight solves may keep running once a drain begins")
		metrics    = flag.Bool("metrics", false, "print a metrics snapshot after the run: solver work and cache counters at any -workers, plus runtime counters and the utilization timeline when -workers > 0")
		traceOut   = flag.String("trace", "", "write a Chrome trace of the campaign to this file (open in Perfetto): campaign and solver spans at any -workers, plus per-attempt worker lanes when -workers > 0")
		cacheDir   = flag.String("cache-dir", "", "content-addressed result cache directory, shared across campaigns and restarts: cached solves are skipped, bit-for-bit")
		cacheMem   = flag.Int("cache-mem", 0, "result cache in-memory budget in MiB (0 = 64 MiB default; a value > 0 enables caching even without -cache-dir)")
	)
	flag.Parse()

	if err := (cliFlags{
		walltime: *walltime, drainGrace: *drainGrace, cacheMemMB: *cacheMem,
		samples: *nSamples, tradFactor: *factor,
		l: *l, t: *t, ls: *ls, configs: *nCfg, batch: *batch,
		workers: *workers, journal: *journal,
	}).validate(); err != nil {
		fmt.Fprintf(os.Stderr, "gasolve: invalid flags:\n%v\n", err)
		os.Exit(2)
	}
	sinks := newObsSinks(*metrics, *traceOut)

	// The result cache dedupes identical solves across campaigns and
	// process restarts; it is attached to every campaign mode. Synthetic
	// mode has no solves to cache.
	var store *cache.Cache
	if *cacheDir != "" || *cacheMem > 0 {
		var err error
		store, err = cache.New(cache.Config{
			Dir:      *cacheDir,
			MemBytes: int64(*cacheMem) << 20,
			Metrics:  sinks.cfg.Metrics,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gasolve: %v\n", err)
			os.Exit(1)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	preempt := watchSignals(cancel, *journal != "")

	spec := realSpec(*l, *t, *ls, *nCfg, *mass, *seed)

	// Every mode is the same run path; the flags only fill in its options.
	opts := core.RunOptions{Workers: *workers, Obs: sinks.cfg, Cache: store}

	if *journal != "" {
		opts.Budget = jobrt.Budget{WallClock: *walltime, DrainGrace: *drainGrace}
		opts.Preempt = preempt
		if err := runJournaled(ctx, *journal, *batch, opts, spec, sinks); err != nil {
			fmt.Fprintf(os.Stderr, "gasolve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *synthetic {
		res, err := core.RunSynthetic(*nSamples, *factor, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gasolve: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("FH method      : gA = %.4f +- %.4f (%d samples, %.2f%% precision)\n",
			res.FH.GA, res.FH.Err, res.FH.NSamples, res.FH.Precision())
		fmt.Printf("traditional    : gA = %.4f +- %.4f (%d samples)\n",
			res.Trad.GA, res.Trad.Err, res.Trad.NSamples)
		fmt.Printf("FH speed-up    : x%.0f in statistics\n", res.SpeedupFactor())
		fmt.Printf("neutron lifetime: tau_n = %.1f +- %.1f s  [Eq. (1)]\n",
			res.TauSeconds, res.TauErr)
		return
	}

	fmt.Printf("running real FH pipeline on %v x Ls=%d, %d configurations...\n",
		spec.Dims, spec.Params.Ls, spec.NConfigs)
	res, rep, err := core.Run(ctx, spec, opts)
	sinks.printReport(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gasolve: %v\n", err)
		os.Exit(1)
	}
	printCacheStats(store)
	if err := sinks.flush(); err != nil {
		fmt.Fprintf(os.Stderr, "gasolve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%d Dirac solves per configuration (12 forward + 12 FH)\n", res.SolvesPerConfig)
	fmt.Println("  t    g_eff(t)      +-")
	for i := range res.Geff {
		fmt.Printf("%3d  %10.4f  %10.4f\n", i, res.Geff[i], res.GeffErr[i])
	}
}

// realSpec is the campaign the real-solve flags describe: an l^3 x t
// lattice, the fixed Mobius kernel, ensemble and solver settings, and the
// flagged fifth-dimension extent, mass, configuration count and seed.
func realSpec(l, t, ls, configs int, mass float64, seed int64) core.RealConfig {
	return core.RealConfig{
		Dims:        [4]int{l, l, l, t},
		Params:      dirac.MobiusParams{Ls: ls, M5: 1.4, B5: 1.25, C5: 0.25, M: mass},
		NConfigs:    configs,
		Seed:        seed,
		Beta:        5.8,
		ThermSweeps: 10,
		GapSweeps:   2,
		Tol:         1e-8,
		Prec:        solver.Single,
	}
}

// runJournaled resumes (or starts) a write-ahead-journaled campaign and
// runs the remaining configurations - at most batch of them, when batch
// is positive - under the allocation budget: the pool refuses work that
// cannot finish before the wall, drains gracefully at expiry or on
// SIGINT/SIGTERM, and every finished configuration is durable in the
// journal - so simply re-running the same command resumes from where the
// previous allocation stopped, bit-for-bit.
func runJournaled(ctx context.Context, path string, batch int, opts core.RunOptions, spec core.RealConfig, sinks obsSinks) error {
	var (
		camp *core.Campaign
		j    *core.Journal
		err  error
	)
	if _, statErr := os.Stat(path); statErr == nil {
		j, camp, err = core.OpenJournal(path, 1)
		if err != nil {
			return err
		}
		fmt.Printf("resumed journal: %d/%d configurations done\n", camp.Done(), camp.Spec.NConfigs)
	} else {
		j, err = core.CreateJournal(path, spec, 1)
		if err != nil {
			return err
		}
		camp = core.NewCampaign(spec)
		fmt.Printf("new journaled campaign: %d configurations planned\n", spec.NConfigs)
	}
	// Admission control and the drain live in the job pool, so journal
	// mode always runs on one: -workers 0 means a single solve worker.
	opts.Workers = max(opts.Workers, 1)
	opts.Journal = j
	if batch == 0 {
		batch = camp.Spec.NConfigs
	}
	n, rep, err := camp.Run(ctx, batch, opts)
	sinks.printReport(rep)
	printCacheStats(opts.Cache)
	if cerr := j.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := sinks.flush(); err != nil {
		return err
	}
	fmt.Printf("measured %d configurations this allocation (%d/%d total)\n",
		n, camp.Done(), camp.Spec.NConfigs)
	if !camp.Complete() {
		fmt.Printf("re-run the same command to resume the remaining %d configurations\n",
			camp.Spec.NConfigs-camp.Done())
		return nil
	}
	geff, gerr, err := camp.Geff()
	if err != nil {
		return err
	}
	fmt.Println("campaign complete; effective coupling:")
	for i := range geff {
		fmt.Printf("%3d  %10.4f  %10.4f\n", i, geff[i], gerr[i])
	}
	return nil
}
