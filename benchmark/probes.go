package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"femtoverse/internal/cache"
	"femtoverse/internal/core"
	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/linalg"
	"femtoverse/internal/obs"
	"femtoverse/internal/prop"
	jobrt "femtoverse/internal/runtime"
	"femtoverse/internal/solver"
)

// timePerCall runs fn for the host's probe budget (at least 5 times,
// after one warm-up call) and returns the median seconds per call.
func (h hostInfo) timePerCall(fn func()) float64 {
	fn()
	var ts []float64
	for begin := time.Now(); len(ts) < 5 || time.Since(begin) < h.probeBudget; {
		t0 := time.Now()
		fn()
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts)
}

// mallocsPerCall counts heap allocations of one call, averaged over n.
func mallocsPerCall(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func randomVec(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

// hostInfo is the machine the numbers were taken on: the roofline every
// kernel fraction is relative to. It is measured in the same run, by the
// benchmark, because the product models Summit and has never modelled
// the host it runs on.
type hostInfo struct {
	nproc, gomaxprocs int
	llcMB, arrayMB    float64
	triadGBs          float64
	peak64, peak32    float64
	// probeBudget is how long a microprobe repeats its call.
	probeBudget time.Duration
}

func (h hostInfo) metrics(m metricSet) {
	m["host.nproc"] = float64(h.nproc)
	m["host.gomaxprocs"] = float64(h.gomaxprocs)
	m["host.llc_mb"] = h.llcMB
	m["host.stream_array_mb"] = h.arrayMB
	m["host.stream_triad_gbs"] = h.triadGBs
	m["host.peak_gflops_f64"] = h.peak64
	m["host.peak_gflops_f32"] = h.peak32
}

func (h hostInfo) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d LLC=%.0f MiB  stream triad %.2f GB/s (3 arrays x %.0f MiB)  peak %.2f GFLOPS f64 / %.2f GFLOPS f32 (scalar Go)",
		h.nproc, h.gomaxprocs, h.llcMB, h.triadGBs, h.arrayMB, h.peak64, h.peak32)
}

// attainable is the roofline bound at the given arithmetic intensity.
func (h hostInfo) attainable(flopsPerByte float64, f32 bool) float64 {
	peak := h.peak64
	if f32 {
		peak = h.peak32
	}
	return math.Min(peak, h.triadGBs*flopsPerByte)
}

// llcBytes reads the last-level cache size the kernel reports for cpu0;
// 32 MiB when the platform does not say.
func llcBytes() int64 {
	best := int64(0)
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		return 32 << 20
	}
	return best
}

// probeHost measures sustainable memory bandwidth (STREAM triad, every
// core) and the peak arithmetic rate of scalar Go code (independent
// multiply-add chains, every core). The smoke scale shrinks every probe
// to keep the smoke test short; its numbers describe no machine.
func probeHost(smoke bool) hostInfo {
	h := hostInfo{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), probeBudget: 20 * time.Millisecond}
	llc := llcBytes()
	h.llcMB = float64(llc) / (1 << 20)

	// Each array is four times the last-level cache, so the triad streams
	// from memory - capped at 256 MiB an array because a virtual machine
	// reports the whole socket's cache (260 MiB here) and three 1 GiB
	// arrays are not a reasonable tax on every traced run. Both sizes are
	// reported; when the cap binds, the three arrays together still
	// exceed the cache.
	arrayBytes := 4 * llc
	if arrayBytes > 256<<20 {
		arrayBytes = 256 << 20
	}
	iters := 1 << 23
	if smoke {
		arrayBytes, iters, h.probeBudget = 4<<20, 1<<16, time.Millisecond
	}
	n := int(arrayBytes / 8)
	h.arrayMB = float64(arrayBytes) / (1 << 20)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		parallelRanges(n, h.gomaxprocs, func(lo, hi int) {
			x, y, z := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range x {
				x[i] = y[i] + 3*z[i]
			}
		})
		best = math.Min(best, time.Since(t0).Seconds())
	}
	h.triadGBs = 3 * float64(arrayBytes) / best / 1e9

	t0 := time.Now()
	parallelRanges(h.gomaxprocs, h.gomaxprocs, func(lo, hi int) { sinkF64(fmaChains64(iters)) })
	h.peak64 = float64(h.gomaxprocs*iters*16) / time.Since(t0).Seconds() / 1e9
	t0 = time.Now()
	parallelRanges(h.gomaxprocs, h.gomaxprocs, func(lo, hi int) { sinkF64(float64(fmaChains32(iters))) })
	h.peak32 = float64(h.gomaxprocs*iters*16) / time.Since(t0).Seconds() / 1e9
	return h
}

// parallelRanges splits [0,n) over workers goroutines and waits.
func parallelRanges(n, workers int, body func(lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	wg.Wait()
}

// fmaChains64 runs eight independent multiply-add chains: 16 flops an
// iteration with no dependency between chains, the most a scalar
// instruction stream can keep in flight.
func fmaChains64(iters int) float64 {
	x0, x1, x2, x3, x4, x5, x6, x7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
	const a, b = 0.999999, 1e-7
	for i := 0; i < iters; i++ {
		x0, x1, x2, x3 = x0*a+b, x1*a+b, x2*a+b, x3*a+b
		x4, x5, x6, x7 = x4*a+b, x5*a+b, x6*a+b, x7*a+b
	}
	return x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
}

func fmaChains32(iters int) float32 {
	var x0, x1, x2, x3, x4, x5, x6, x7 float32 = 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
	const a, b float32 = 0.999999, 1e-7
	for i := 0; i < iters; i++ {
		x0, x1, x2, x3 = x0*a+b, x1*a+b, x2*a+b, x3*a+b
		x4, x5, x6, x7 = x4*a+b, x5*a+b, x6*a+b, x7*a+b
	}
	return x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
}

// sinkF64 keeps a probe's result alive so the compiler cannot drop the
// loop that produced it.
func sinkF64(v float64) {
	if math.IsNaN(v) {
		panic("benchmark: arithmetic probe produced NaN")
	}
}

// probeKernel times one operator application and reports it the way the
// paper reports kernels: rate, computed traffic, intensity and fraction
// of the host's roofline. bytes is computed from array sizes (operands
// and gauge links touched once), not measured. It returns microseconds
// per application.
func probeKernel(m metricSet, h hostInfo, key string, apply func(), flops, bytes int64, f32 bool) float64 {
	sec := h.timePerCall(apply)
	gflops := float64(flops) / sec / 1e9
	intensity := float64(flops) / float64(bytes)
	m["dirac."+key+"_apply_us"] = sec * 1e6
	m["dirac."+key+"_gflops"] = gflops
	m["dirac."+key+"_gbs_computed"] = float64(bytes) / sec / 1e9
	m["dirac."+key+"_flops_per_byte"] = intensity
	m["dirac."+key+"_roofline_frac"] = gflops / h.attainable(intensity, f32)
	m["dirac."+key+"_allocs_per_apply"] = mallocsPerCall(20, apply)
	return sec * 1e6
}

// probeLinalg times the BLAS-1 calls the solvers stream their vectors
// through, at this workload's vector length n. Traffic is computed from
// operand sizes.
func probeLinalg(m metricSet, h hostInfo, n int) {
	x, y := randomVec(n, 2), randomVec(n, 3)
	x32, y32 := make([]complex64, n), make([]complex64, n)
	linalg.Demote(x32, x)
	linalg.Demote(y32, y)
	gbs := func(bytes int, fn func()) float64 { return float64(bytes) / h.timePerCall(fn) / 1e9 }

	m["linalg.axpy_gbs"] = gbs(3*16*n, func() { linalg.Axpy(1e-9, x, y, 0) })
	m["linalg.dot_gbs"] = gbs(2*16*n, func() { sinkF64(real(linalg.Dot(x, y, 0))) })
	m["linalg.normsq_gbs"] = gbs(16*n, func() { sinkF64(linalg.NormSq(x, 0)) })
	m["linalg.axpy_c64_gbs"] = gbs(3*8*n, func() { linalg.AxpyC64(1e-9, x32, y32, 0) })
	m["linalg.dot_c64_gbs"] = gbs(2*8*n, func() { sinkF64(real(linalg.DotC64(x32, y32, 0))) })
	best := 0.0
	for _, k := range []string{"axpy_gbs", "dot_gbs", "normsq_gbs", "axpy_c64_gbs", "dot_c64_gbs"} {
		best = math.Max(best, m["linalg."+k])
	}
	m["linalg.stream_frac"] = best / h.triadGBs
	m["linalg.allocs_per_call"] = mallocsPerCall(50, func() { linalg.Axpy(1e-9, x, y, 0) })

	// The half-precision storage round trip of the Half sloppy stage.
	hv := linalg.NewHalfVector(n, dirac.SpinorLen)
	m["linalg.half_codec_gbs"] = gbs(2*(8*n+hv.Bytes()), func() {
		hv.EncodeC64(x32)
		hv.DecodeC64(x32)
	})
}

// probeSolveAllocs runs one more solve under the allocation counters.
func probeSolveAllocs(m metricSet, solve func() error) error {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	if err := solve(); err != nil {
		return fmt.Errorf("allocation probe solve: %w", err)
	}
	runtime.ReadMemStats(&b)
	m["solver.allocs_per_solve"] = float64(b.Mallocs - a.Mallocs)
	m["solver.alloc_kb_per_solve"] = float64(b.TotalAlloc-a.TotalAlloc) / 1024
	return nil
}

// probeMobius probes the two preconditioned domain-wall kernels, the
// BLAS-1 layer at their vector length and one solve's allocations, on
// the operator of configuration u under spec.
func probeMobius(m metricSet, h hostInfo, spec core.RealConfig, u *gauge.Field) error {
	u = u.Clone()
	u.FlipTimeBoundary()
	eo, err := mobiusEO(u, spec.Params)
	if err != nil {
		return err
	}
	sloppy := dirac.NewMobiusEO32(eo)
	n := eo.Size()
	src, dst := randomVec(n, 1), make([]complex128, n)
	src32, dst32 := make([]complex64, n), make([]complex64, n)
	linalg.Demote(src32, src)
	// Compulsory traffic of one application: source in, result out, and
	// the 4-D gauge links once (they are shared by all Ls slices).
	links := int64(u.G.Vol) * 4 * 9
	probeKernel(m, h, "schur64", func() { eo.Apply(dst, src) }, eo.FlopsPerApply(), 2*int64(n)*16+links*16, false)
	probeKernel(m, h, "schur32", func() { sloppy.Apply(dst32, src32) }, eo.FlopsPerApply(), 2*int64(n)*8+links*8, true)
	probeLinalg(m, h, n)
	qs := prop.NewQuarkSolver(eo, solver.Params{Tol: spec.Tol, Precision: spec.Prec})
	b4 := prop.PointSource(u.G, [4]int{}, 0, 0)
	return probeSolveAllocs(m, func() error {
		_, _, err := qs.Solve4D(b4)
		return err
	})
}

// solverMetrics reports the exact solver counts of the first traced pass
// and the rates that follow from them.
func solverMetrics(m metricSet, first *passResult) {
	c := first.counts
	for _, k := range []string{"solves", "iterations", "reliable_updates", "restarts", "true_residual_max"} {
		m["solver."+k] = c["solver."+k]
	}
	if c["solver.elapsed_s"] > 0 {
		m["solver.sustained_gflops"] = c["solver.flops"] / c["solver.elapsed_s"] / 1e9
	}
	if c["solver.iterations"] > 0 {
		m["solver.iter_us"] = c["solver.elapsed_s"] / c["solver.iterations"] * 1e6
	}
}

// probeShared measures the layers every workload reports the same way:
// the campaign journal, the result cache and the job runtime's own
// dispatch cost, each in isolation in a scratch directory.
func probeShared(m metricSet, h hostInfo, dir string) error {
	// core: write-ahead journal appends and the fsync that makes them
	// durable.
	spec := core.DefaultRealConfig()
	jpath := filepath.Join(dir, "probe.fwal")
	j, err := core.CreateJournal(jpath, spec, 1<<30)
	if err != nil {
		return err
	}
	series := make([]float64, spec.Dims[3])
	const records = 32
	t0 := time.Now()
	for i := 0; i < records; i++ {
		if err := j.Append(i, series, series); err != nil {
			return fmt.Errorf("journal probe: %w", err)
		}
	}
	m["core.journal_append_us"] = time.Since(t0).Seconds() / records * 1e6
	t0 = time.Now()
	if err := j.Sync(); err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	m["core.journal_sync_ms"] = time.Since(t0).Seconds() * 1e3
	if err := j.Close(); err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	st, err := os.Stat(jpath)
	if err != nil {
		return err
	}
	m["core.journal_bytes"] = float64(st.Size())

	// cache: a disk-backed put (temp file, fsync, rename) and a memory hit.
	store, err := cache.New(cache.Config{Dir: filepath.Join(dir, "probe-cache")})
	if err != nil {
		return err
	}
	blob, err := cache.EncodeFloatSeries(series, series)
	if err != nil {
		return err
	}
	var puts []float64
	for i := 0; i < 8; i++ {
		key := core.SolveKey(spec, i)
		t0 := time.Now()
		if err := store.Put(key, blob); err != nil {
			return fmt.Errorf("cache probe: %w", err)
		}
		puts = append(puts, time.Since(t0).Seconds()*1e3)
	}
	m["cache.disk_put_ms"] = median(puts)
	key := core.SolveKey(spec, 0)
	m["cache.get_hit_us"] = h.timePerCall(func() {
		if _, ok := store.Get(key); !ok {
			panic("benchmark: cache probe lost its entry")
		}
	}) * 1e6

	// runtime: the pool's own cost per task, on tasks that do nothing -
	// a solve-class task and its dependent contract-class task, the
	// shape every campaign driver submits.
	const pairs = 32
	reg := obs.NewRegistry()
	tasks := make([]jobrt.Task, 0, 2*pairs)
	noop := func(context.Context) (interface{}, error) { return nil, nil }
	for k := 0; k < pairs; k++ {
		tasks = append(tasks,
			jobrt.Task{ID: 2 * k, Name: "probe-solve", Class: jobrt.Solve, Cost: 1, Run: noop},
			jobrt.Task{ID: 2*k + 1, Name: "probe-contract", Class: jobrt.Contract, Cost: 0.05, DependsOn: []int{2 * k}, Run: noop})
	}
	t0 = time.Now()
	_, rep, err := jobrt.Run(context.Background(), jobrt.Config{SolveWorkers: 2, ContractWorkers: 1, Metrics: reg}, tasks)
	wall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("runtime probe: %w", err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"runtime.tasks", "runtime.attempts", "runtime.retries", "runtime.backfills"} {
		v, _ := snap.CounterValue(name)
		m[name] = float64(v)
	}
	m["runtime.queue_wait_s"] = rep.MeanQueueWait.Seconds() * float64(rep.Tasks)
	m["runtime.solve_util"] = rep.SolveUtil
	m["runtime.contract_util"] = rep.ContractUtil
	m["runtime.dispatch_overhead_us"] = wall.Seconds() / float64(len(tasks)) * 1e6
	return nil
}
