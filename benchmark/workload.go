package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"femtoverse/internal/solver"
)

// tol is the solver tolerance every workload states its time-to-solution at.
const tol = 1e-8

// minOps is the least number of operations a full-scale run issues, so
// the 85th percentile has at least ten samples beyond it.
const minOps = 72

// scale sizes a run. The full scale is what BENCHMARK.json measures; the
// smoke scale exists for bench_smoke_test.go.
type scale struct {
	smoke bool
	// Set-up runs at least setups times and, up to maxSetups, until
	// setupBudget seconds have gone into it: a cheap set-up gets more
	// repeats, so a burst of interference is less likely to cover them
	// all. setup_s is the fastest.
	setups, maxSetups int
	setupBudget       float64
	// minPasses and minOps bound the timed region from below, the
	// -seconds flag from above.
	minPasses, minOps int
}

func fullScale() scale {
	return scale{setups: 5, maxSetups: 25, setupBudget: 2, minPasses: 2, minOps: minOps}
}
func smokeScale() scale { return scale{smoke: true, setups: 1, maxSetups: 1, minPasses: 1} }

// workload is one named set of inputs.
type workload struct {
	name string
	// op names what one operation is, for the printed report.
	op string
	// setup does everything before the timed region. Inputs derive from
	// seed alone; dir is a private scratch directory; rec records the
	// set-up spans of a traced run (nil otherwise).
	setup func(sc scale, seed int64, dir string, rec *spans) (env, error)
}

// env is a workload set up and ready to run passes.
type env interface {
	// prepare resets per-pass state outside the timed region.
	prepare(i int) error
	// pass runs the workload's fixed unit of work once - a campaign, a
	// batch of solves, a batch of HTTP submissions - and checks every
	// output. i is the pass index; rec is nil on an untraced pass.
	pass(i int, rec *spans) (*passResult, error)
	// verify runs the end-of-run checks that do not belong in the timed
	// region and returns the problems found.
	verify() []string
	// layerMetrics adds the workload's own per-layer numbers: set-up
	// spans, registry counters and microprobes on this workload's
	// operators.
	layerMetrics(m metricSet, d *tracedData, host hostInfo) error
	// corruptReference damages the bit-reference the checker compares
	// against, so a test can prove the checker is able to fail.
	corruptReference()
	close() error
}

// passResult is what one pass observed.
type passResult struct {
	// ops are the per-operation latencies; failed counts the operations
	// that errored, did not converge, exceeded tol, mismatched their
	// bit-reference or got an unexpected HTTP status.
	ops      []time.Duration
	failed   int
	problems []string
	// fingerprint digests every output of the pass; digests are the
	// per-operation digests where the workload keeps them.
	fingerprint string
	digests     []string
	// counts are exact per-pass counts (pure functions of the seed).
	counts map[string]float64
	// samples are per-call timings some per-layer metrics report
	// medians of, keyed by metric name.
	samples map[string][]float64
	// wall and allocBytes are set by a pass whose time-to-solution region
	// is narrower than the pass (fh-*: the core.RunReal call, not the
	// per-operation solves that follow it); zero means the whole pass.
	wall       time.Duration
	allocBytes uint64
}

func newPassResult() *passResult {
	return &passResult{counts: map[string]float64{}, samples: map[string][]float64{}}
}

func (p *passResult) sample(name string, v float64) {
	p.samples[name] = append(p.samples[name], v)
}

// addSolve folds one solve's statistics into the pass counts.
func (p *passResult) addSolve(st solver.Stats) {
	c := p.counts
	c["solver.solves"]++
	c["solver.iterations"] += float64(st.Iterations)
	c["solver.reliable_updates"] += float64(st.ReliableUpdates)
	c["solver.restarts"] += float64(st.Restarts)
	c["solver.flops"] += float64(st.Flops)
	c["solver.elapsed_s"] += st.Elapsed.Seconds()
	c["solver.true_residual_max"] = math.Max(c["solver.true_residual_max"], st.TrueResidual)
}

// tracedData is what the traced passes of one run observed.
type tracedData struct {
	// first is the first traced pass, the source of the exact counts.
	first *passResult
	// ops holds, per operation of the pass, its least latency over the
	// traced passes; samples pool every traced pass.
	ops     []time.Duration
	samples map[string][]float64
	// perPass is the span accounting of the traced passes divided by
	// their number: one pass's worth of busy and self time per layer.
	perPass map[string]acc
}

func (p *passResult) fail(format string, args ...interface{}) {
	p.failed++
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// runResult is one (workload, mode) run: what -json prints, what -out
// stores and what -compare reads.
type runResult struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Traced      bool                   `json:"traced"`
	Smoke       bool                   `json:"smoke,omitempty"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailFrac    float64                `json:"fail_frac"`
	Passes      int                    `json:"passes"`
	OpsPerPass  int                    `json:"ops_per_pass"`
	Operation   string                 `json:"operation"`
	Fingerprint string                 `json:"fingerprint"`
	Gomaxprocs  int                    `json:"gomaxprocs"`
	PassWalls   []float64              `json:"pass_wall_s"`
	Metrics     map[string]metricValue `json:"metrics"`
	Problems    []string               `json:"problems,omitempty"`

	// counts are the exact counts of the first reported pass, held
	// against the golden file; host is the probed machine of a traced run.
	counts map[string]float64
	host   hostInfo
}

// runOptions carries what the command line (or the smoke test) chose.
type runOptions struct {
	sc      scale
	seed    int64
	seconds float64
	traced  bool
	// tracePath, when set on a traced run, receives the Chrome trace.
	tracePath string
	// tmpRoot is where scratch directories are made ("" = os.TempDir()).
	tmpRoot string
	// corrupt damages the workload's bit-reference before the timed
	// region; only the smoke test sets it.
	corrupt bool
	// skipGolden is set while the golden file itself is being rewritten.
	skipGolden bool
}

// run executes one workload in one mode.
func run(w workload, o runOptions) (res *runResult, err error) {
	dir, err := os.MkdirTemp(o.tmpRoot, "femtobench-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = fmt.Errorf("remove scratch dir: %w", rerr)
		}
	}()

	var rec *spans
	if o.traced {
		rec = newSpans()
	}

	// Set-up, repeated, so one slow fsync or page-fault storm does not
	// decide setup_s. A traced run does not report it and sets up once.
	minSetups, maxSetups := o.sc.setups, o.sc.maxSetups
	if o.traced {
		minSetups, maxSetups = 1, 1
	}
	var e env
	var setupTimes []float64
	for i, spent := 0, 0.0; i < minSetups || (i < maxSetups && spent < o.sc.setupBudget); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("%s: close set-up %d: %w", w.name, i-1, err)
			}
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		e, err = w.setup(o.sc, o.seed, sub, rec)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		spent += setupTimes[i]
	}
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: close: %w", w.name, cerr)
		}
	}()
	if o.corrupt {
		e.corruptReference()
	}

	res = &runResult{
		Workload: w.name, Seed: o.seed, Traced: o.traced, Smoke: o.sc.smoke,
		Operation: w.op, Gomaxprocs: runtime.GOMAXPROCS(0),
	}

	// The timed region. An untraced run repeats the pass; a traced run
	// alternates untraced and traced passes, so tracing overhead compares
	// like with like inside one process, and reports the traced ones.
	// Every pass sees the same inputs.
	var walls, untracedWalls, allocs []float64
	issued := 0
	var fingerprints []string
	d := &tracedData{samples: map[string][]float64{}}
	spansBefore := rec.totals()
	begin := time.Now()
	for i := 0; ; i++ {
		passRec := rec
		if o.traced && i%2 == 0 {
			passRec = nil
		}
		if err := e.prepare(i); err != nil {
			return nil, fmt.Errorf("%s: prepare pass %d: %w", w.name, i, err)
		}
		var p *passResult
		wall, allocBytes, perr := measure(func() (err error) {
			p, err = e.pass(i, passRec)
			return err
		})
		if perr != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", w.name, i, perr)
		}
		if p.wall > 0 {
			wall, allocBytes = p.wall, p.allocBytes
		}
		fingerprints = append(fingerprints, p.fingerprint)
		res.Attempted += len(p.ops)
		res.Failed += p.failed
		res.Problems = append(res.Problems, p.problems...)
		if o.traced && passRec == nil {
			untracedWalls = append(untracedWalls, wall.Seconds())
		} else {
			if d.first == nil {
				d.first = p
			}
			res.Passes++
			res.OpsPerPass = len(p.ops)
			walls = append(walls, wall.Seconds())
			allocs = append(allocs, float64(allocBytes)/(1<<20))
			d.ops = leastPerOp(d.ops, p.ops)
			issued += len(p.ops)
			for _, k := range sortedKeys(p.samples) {
				d.samples[k] = append(d.samples[k], p.samples[k]...)
			}
		}
		// A traced run is held to the pass minimum only: it reports
		// layer timings, not the 85th percentile.
		enough := res.Passes >= o.sc.minPasses && (o.traced || issued >= o.sc.minOps)
		if enough && time.Since(begin).Seconds() >= o.seconds {
			break
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operations attempted", w.name)
	}

	// Same inputs, so every pass - traced or not - must reproduce the
	// first one bit for bit.
	for i, fp := range fingerprints {
		if fp != fingerprints[0] {
			res.Problems = append(res.Problems, fmt.Sprintf("pass %d fingerprint %.12s differs from pass 0 %.12s", i, fp, fingerprints[0]))
		}
	}
	res.Fingerprint = fingerprints[0]
	res.PassWalls = walls
	res.counts = d.first.counts
	res.Problems = append(res.Problems, e.verify()...)
	res.Problems = append(res.Problems, checkGolden(o, res)...)

	m := metricSet{}
	defs := endToEnd
	if o.traced {
		defs = perLayer
		d.perPass = rec.since(spansBefore)
		for k, v := range d.perPass {
			n := int64(res.Passes)
			d.perPass[k] = acc{busy: v.busy / time.Duration(n), self: v.self / time.Duration(n), n: v.n / n}
		}
		res.host = probeHost(o.sc.smoke)
		res.host.metrics(m)
		layerTotals(m, d.perPass)
		m["core.tracing_overhead_frac"] = least(walls)/least(untracedWalls) - 1
		for _, name := range []string{"contract.proton2pt_ms", "contract.fh3pt_ms", "core.analysis_ms"} {
			m[name] = median(d.samples[name])
		}
		if err := e.layerMetrics(m, d, res.host); err != nil {
			return nil, fmt.Errorf("%s: per-layer metrics: %w", w.name, err)
		}
		if err := probeShared(m, res.host, dir); err != nil {
			return nil, fmt.Errorf("%s: shared probes: %w", w.name, err)
		}
		if o.tracePath != "" {
			if err := writeTrace(rec, o.tracePath); err != nil {
				return nil, err
			}
		}
	} else {
		// Interference from outside the process only ever adds time, and
		// every pass repeats the same inputs, so each timing is reported
		// from its least-disturbed repeat: the fastest set-up, the fastest
		// pass, and per operation its fastest execution.
		m["setup_s"] = least(setupTimes)
		m["wall_s"] = least(walls)
		m["op_p50_s"] = quantile(seconds(d.ops), 0.50)
		m["op_p85_s"] = quantile(seconds(d.ops), 0.85)
		m["alloc_mb"] = median(allocs)
	}
	if bad := m.unknown(defs); len(bad) > 0 {
		return nil, fmt.Errorf("%s: metrics outside the table: %v", w.name, bad)
	}
	res.Metrics = m.export(defs)
	res.FailFrac = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// layerTotals turns one pass's span accounting into the busy/self/share
// metrics. Shares are of the root spans' busy time, which is the traced
// wall (every workload drives the product from one goroutine); the root's
// own self time is what no product layer accounts for.
func layerTotals(m metricSet, t map[string]acc) {
	root := t[rootLayer].busy.Seconds()
	if root <= 0 {
		return
	}
	m["core.residual_frac"] = t[rootLayer].self.Seconds() / root
	var apply acc
	for _, k := range []string{"schur64", "schur32"} {
		for _, dir := range []string{"_apply", "_apply_dagger"} {
			a := t["dirac."+k+dir]
			apply.busy += a.busy
			apply.n += a.n
		}
	}
	m["dirac.apply_calls"] = float64(apply.n)
	m["dirac.apply_s"] = apply.busy.Seconds()
	m["dirac.apply_share"] = apply.busy.Seconds() / root
	m["solver.busy_s"] = t["solver"].busy.Seconds()
	m["solver.self_s"] = t["solver"].self.Seconds()
	m["solver.self_share"] = t["solver"].self.Seconds() / root
	m["prop.prepare_reconstruct_s"] = (t["prop.inject5d"].busy + t["prop.prepare_source"].busy +
		t["prop.reconstruct"].busy + t["prop.project4d"].busy).Seconds()
	m["prop.spinmul_s"] = t["prop.spinmul"].busy.Seconds()
	m["prop.share"] = t["prop"].self.Seconds() / root
	m["contract.busy_s"] = t["contract"].busy.Seconds()
	m["contract.share"] = t["contract"].self.Seconds() / root
}

func writeTrace(rec *spans, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	if err := rec.tr.WriteChromeTrace(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// measure runs fn under the stopwatch and the allocation counter.
func measure(fn func() error) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return wall, after.TotalAlloc - before.TotalAlloc, err
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// least is the minimum of xs (0 for an empty sample).
func least(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// leastPerOp folds one more pass into the per-operation minima. A pass
// cut short by a failed operation shortens the result to the operations
// every pass completed.
func leastPerOp(best, pass []time.Duration) []time.Duration {
	if best == nil {
		return append([]time.Duration(nil), pass...)
	}
	if len(pass) < len(best) {
		best = best[:len(pass)]
	}
	for i := range best {
		if pass[i] < best[i] {
			best[i] = pass[i]
		}
	}
	return best
}

// quantile is the linearly interpolated q-quantile of xs (NaN-free: 0
// for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := sortedCopy(xs)
	idx := q * float64(len(c)-1)
	lo := int(math.Floor(idx))
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	frac := idx - float64(lo)
	return c[lo]*(1-frac) + c[lo+1]*frac
}

func sortedCopy(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
