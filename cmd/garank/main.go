// Command garank is the multi-process distributed runtime. In worker
// mode (-serve) it hosts one rank: it dials the coordinator, receives
// its subdomain, and exchanges Dirac halos with peer workers over TCP.
// In coordinator mode (the default) it spawns N copies of itself as
// worker processes, runs a CGNE solve through the distributed operator,
// and verifies the solution bit-for-bit against the single-process
// operator - optionally killing a rank mid-solve to demonstrate
// heartbeat detection, checkpoint restore, and retry-to-convergence.
//
// A four-rank ring with a mid-solve kill:
//
//	garank -ranks 4 -kill-rank 1 -kill-xid 3 -metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"femtoverse/internal/dirac"
	"femtoverse/internal/fault"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/obs"
	"femtoverse/internal/solver"
	"femtoverse/internal/wire"
)

func main() {
	var (
		serve = flag.Bool("serve", false, "worker mode: serve one rank for the coordinator at -coord")
		coord = flag.String("coord", "", "coordinator address (worker mode)")

		ranks    = flag.Int("ranks", 4, "worker process count (grid 1x1x1xN over the time axis)")
		gridSpec = flag.String("grid", "", "explicit process grid, e.g. 1,1,2,2 (overrides -ranks)")
		ls       = flag.Int("l", 4, "spatial lattice extent")
		lt       = flag.Int("t", 8, "temporal lattice extent")
		mass     = flag.Float64("mass", 0.1, "Wilson mass")
		eps      = flag.Float64("eps", 0.3, "gauge disorder (weak-field ensemble)")
		seed     = flag.Int64("seed", 11, "gauge ensemble seed")
		tol      = flag.Float64("tol", 1e-8, "CGNE relative residual target")
		coarse   = flag.Bool("coarse", false, "batch all halo faces per neighbor into one frame")
		staged   = flag.Bool("staged", false, "compute the interior before posting halo sends")

		drop      = flag.Float64("drop", 0, "NetDrop rate per frame transmission")
		delay     = flag.Float64("delay", 0, "NetDelay rate per frame transmission")
		corrupt   = flag.Float64("corrupt", 0, "NetCorrupt rate per frame transmission")
		partition = flag.Float64("partition", 0, "NetPartition rate per link epoch")
		chaosSeed = flag.Int64("chaos-seed", 7, "fault-injection seed")
		maxInject = flag.Int("max-inject", 64, "cap on injected faults (0 = unbounded)")

		killRank = flag.Int("kill-rank", -1, "rank to kill mid-solve (coordinator: forwarded to workers)")
		killXid  = flag.Uint64("kill-xid", 0, "transfer id at which the killed rank dies (every stencil application has one; a D^dag D apply takes two)")

		beatEvery  = flag.Duration("heartbeat-every", 20*time.Millisecond, "worker heartbeat period")
		beatMiss   = flag.Int("heartbeat-miss", 5, "missed beats before a rank is declared dead")
		retryBase  = flag.Duration("retry-base", time.Millisecond, "base delay of the capped jittered frame-retransmit backoff")
		retryMax   = flag.Duration("retry-max", 50*time.Millisecond, "cap of the frame-retransmit backoff")
		checkpoint = flag.String("checkpoint", "", "subdomain checkpoint path (default: temp dir)")
		metrics    = flag.Bool("metrics", false, "print the metrics snapshot")
	)
	flag.Parse()

	if *serve {
		os.Exit(runWorker(*coord, *killRank, *killXid))
	}
	if err := (rankFlags{
		ranks: *ranks, tol: *tol,
		drop: *drop, delay: *delay, corrupt: *corrupt, partition: *partition,
		maxInject: *maxInject,
		beatEvery: *beatEvery, beatMiss: *beatMiss,
		retryBase: *retryBase, retryMax: *retryMax,
		ls: *ls, lt: *lt, killRank: *killRank, killXid: *killXid,
	}).validate(); err != nil {
		fmt.Fprintf(os.Stderr, "garank: invalid flags:\n%v\n", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchSignals(cancel)
	if err := runCoordinator(ctx, coordConfig{
		ranks: *ranks, gridSpec: *gridSpec, ls: *ls, lt: *lt,
		mass: *mass, eps: *eps, seed: *seed, tol: *tol,
		coarse: *coarse, staged: *staged,
		plan: fault.Plan{
			Seed: *chaosSeed, NetDrop: *drop, NetDelay: *delay,
			NetCorrupt: *corrupt, NetPartition: *partition, MaxInjections: *maxInject,
		},
		killRank: *killRank, killXid: *killXid,
		timing: wire.Timing{
			HeartbeatEvery: *beatEvery, HeartbeatMiss: *beatMiss,
			RetryBase: *retryBase, RetryMax: *retryMax,
		},
		checkpoint: *checkpoint, metrics: *metrics,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "garank: %v\n", err)
		os.Exit(1)
	}
}

// watchSignals installs the two-stage SIGINT/SIGTERM handler: the first
// signal cancels the solve context, so the in-flight CGNE solve drains
// at its next iteration and the session teardown disconnects every
// worker cleanly; any further signal hard-kills the coordinator.
func watchSignals(cancel context.CancelFunc) {
	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		n := 0
		for s := range sigs {
			n++
			switch {
			case n == 1:
				fmt.Fprintf(os.Stderr, "garank: %v: draining the in-flight solve (again to hard-kill)\n", s)
				cancel()
			default:
				os.Exit(130)
			}
		}
	}()
}

// runWorker hosts one rank until the coordinator disconnects. Exit code
// 3 marks a chaos-hook death, so process supervisors can tell an
// injected crash from a protocol failure.
func runWorker(coord string, killRank int, killXid uint64) int {
	if coord == "" {
		fmt.Fprintln(os.Stderr, "garank: -serve requires -coord")
		return 2
	}
	opts := wire.WorkerOptions{}
	if killRank >= 0 && killXid > 0 {
		opts.KillAtApply = func(rank int, xid uint64) bool {
			return rank == killRank && xid == killXid
		}
	}
	if err := wire.Serve(coord, opts); err != nil {
		fmt.Fprintf(os.Stderr, "garank worker: %v\n", err)
		return 3
	}
	return 0
}

type coordConfig struct {
	ranks          int
	gridSpec       string
	ls, lt         int
	mass, eps, tol float64
	seed           int64
	coarse, staged bool
	plan           fault.Plan
	killRank       int
	killXid        uint64
	timing         wire.Timing
	checkpoint     string
	metrics        bool
}

// parseGrid reads a 1,1,2,2-style process grid.
func parseGrid(spec string, ranks int) ([lattice.NDim]int, error) {
	grid := [lattice.NDim]int{1, 1, 1, ranks}
	if spec == "" {
		return grid, nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) != lattice.NDim {
		return grid, fmt.Errorf("grid %q needs %d comma-separated extents", spec, lattice.NDim)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return grid, fmt.Errorf("grid %q: bad extent %q", spec, p)
		}
		grid[i] = v
	}
	return grid, nil
}

// runCoordinator runs the distributed solve and the single-process
// crosscheck. Cancelling ctx drains the solve and tears the workers
// down cleanly through the deferred session close.
func runCoordinator(ctx context.Context, cfg coordConfig) error {
	grid, err := parseGrid(cfg.gridSpec, cfg.ranks)
	if err != nil {
		return err
	}
	if cfg.checkpoint == "" {
		dir, err := os.MkdirTemp("", "garank-ckpt-")
		if err != nil {
			return err
		}
		defer func() {
			if rmErr := os.RemoveAll(dir); rmErr != nil {
				fmt.Fprintf(os.Stderr, "garank: checkpoint cleanup: %v\n", rmErr)
			}
		}()
		cfg.checkpoint = filepath.Join(dir, "subdomains.fhio")
	}

	g, err := lattice.New([lattice.NDim]int{cfg.ls, cfg.ls, cfg.ls, cfg.lt})
	if err != nil {
		return err
	}
	u := gauge.NewWeak(g, cfg.seed, cfg.eps)

	self, err := os.Executable()
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	sess, err := wire.NewSession(u, wire.Options{
		Grid: grid, Mass: cfg.mass,
		Coarse: cfg.coarse, Staged: cfg.staged,
		Timing:         cfg.timing,
		CheckpointPath: cfg.checkpoint,
		Chaos:          cfg.plan,
		Metrics:        reg,
		Spawn:          spawnWorker(self, cfg),
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	fmt.Printf("garank: %d ranks over grid %v on %v lattice, coordinator %s\n",
		sess.Ranks(), grid, g.Dims, sess.Addr())

	// Point source at the origin, spin-color component 0.
	b := make([]complex128, sess.Size())
	b[0] = 1

	t0 := time.Now()
	x, st, err := solver.CGNE(ctx, sess, b, solver.Params{Tol: cfg.tol})
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("solve drained after signal: %w", err)
		}
		return fmt.Errorf("distributed solve: %w", err)
	}
	fmt.Printf("distributed solve: %d iterations, residual %.3e, %.2fs\n",
		st.Iterations, st.TrueResidual, time.Since(t0).Seconds())

	// Single-process crosscheck: the same solve on the shared-memory
	// operator must be bit-for-bit identical.
	w := dirac.NewWilson(u, cfg.mass)
	xRef, stRef, err := solver.CGNE(ctx, w, b, solver.Params{Tol: cfg.tol})
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	diffs := 0
	for i := range x {
		if math.Float64bits(real(x[i])) != math.Float64bits(real(xRef[i])) ||
			math.Float64bits(imag(x[i])) != math.Float64bits(imag(xRef[i])) {
			diffs++
		}
	}
	fmt.Printf("single-process crosscheck: %d iterations, %d/%d components differ (bitwise)\n",
		stRef.Iterations, diffs, len(x))

	// Pseudoscalar-style correlator of the solution: C(t) = sum_x |x|^2
	// on each time slice - the quantity the walkthrough plots.
	corr := timeSliceNorms(x, g)
	fmt.Print("correlator C(t):")
	for _, c := range corr {
		fmt.Printf(" %.6e", c)
	}
	fmt.Println()

	deaths := reg.Counter("wire.rank_deaths").Value()
	recoveries := reg.Counter("wire.recoveries").Value()
	retries := reg.Counter("wire.retries").Value()
	fmt.Printf("fault tolerance: %d rank deaths, %d recoveries, %d apply retries, %d frame resends, %d corrupt frames discarded\n",
		deaths, recoveries, retries,
		reg.Counter("wire.resends").Value(), reg.Counter("wire.corrupt_frames").Value())
	if cfg.metrics {
		fmt.Print(reg.Snapshot().Text())
	}

	if diffs != 0 {
		return fmt.Errorf("distributed solution is not bit-identical to single-process (%d components differ)", diffs)
	}
	if cfg.killRank >= 0 && cfg.killXid > 0 && recoveries == 0 {
		return fmt.Errorf("kill was requested (rank %d at xid %d) but no recovery happened", cfg.killRank, cfg.killXid)
	}
	return nil
}

// spawnWorker launches one garank -serve process, forwarding the kill
// flags so exactly the targeted (rank, xid) dies.
func spawnWorker(self string, cfg coordConfig) func(addr string) error {
	return func(addr string) error {
		args := []string{"-serve", "-coord", addr}
		if cfg.killRank >= 0 && cfg.killXid > 0 {
			args = append(args,
				"-kill-rank", strconv.Itoa(cfg.killRank),
				"-kill-xid", strconv.FormatUint(cfg.killXid, 10))
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		go func() {
			if err := cmd.Wait(); err != nil {
				return // injected deaths exit nonzero by design
			}
		}()
		return nil
	}
}

// timeSliceNorms sums |v|^2 over each time slice of a spinor field.
func timeSliceNorms(v []complex128, g *lattice.Geometry) []float64 {
	const spinorLen = 12
	out := make([]float64, g.Dims[lattice.NDim-1])
	for s := 0; s < g.Vol; s++ {
		t := g.Coords(s)[lattice.NDim-1]
		for c := 0; c < spinorLen; c++ {
			z := v[s*spinorLen+c]
			out[t] += real(z)*real(z) + imag(z)*imag(z)
		}
	}
	return out
}
