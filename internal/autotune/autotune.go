// Package autotune is the run-time kernel autotuner, modelled on QUDA's:
// the first time an un-tuned kernel/problem combination is met, a
// brute-force search over launch parameters is performed; the optimum is
// stored in a keyed cache and looked up on demand ever after. Entries
// carry performance metadata, the cache can be saved and restored (QUDA's
// tunecache file), and destructive kernels can be tuned safely through
// the PreTune/PostTune backup hooks. The launch-parameter space here is
// worker count and site-block granularity rather than CUDA block/grid
// geometry, but the mechanism - and its effect on performance
// portability - is the paper's.
package autotune

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	rcache "femtoverse/internal/cache"
	"femtoverse/internal/obs"
)

// Key identifies a tuned kernel: its name, the problem geometry, and any
// salient auxiliary parameters (precision, stencil direction mask, ...).
type Key struct {
	Kernel string `json:"kernel"`
	Volume string `json:"volume"`
	Aux    string `json:"aux"`
}

// String renders the key in QUDA's tunecache style.
func (k Key) String() string { return k.Kernel + "," + k.Volume + "," + k.Aux }

// LaunchParams is the tunable launch configuration of a kernel.
type LaunchParams struct {
	Workers int `json:"workers"` // goroutines in the site loop
	Block   int `json:"block"`   // sites per scheduling block
}

// Entry is a cache record: the winning parameters plus metadata.
type Entry struct {
	Params LaunchParams `json:"params"`
	// Time is the best measured time for timed searches. For modelled
	// searches (SearchModelled) it instead encodes the unit-less model
	// cost as cost seconds, clamped to [0, MaxInt64] nanoseconds.
	Time   time.Duration `json:"time"`
	GFLOPS float64       `json:"gflops"` // derived from Flops metadata
	// Tried counts candidates examined; Runs counts total kernel
	// executions during the search (one warm-up plus reps per candidate),
	// which is what the search actually cost.
	Tried    int       `json:"tried"`
	Runs     int       `json:"runs,omitempty"`
	TunedAt  time.Time `json:"tuned_at"` // when the search ran
	Comments string    `json:"comments,omitempty"`
}

// Tunable is the contract a kernel implements to be autotuned, mirroring
// QUDA's Tunable class.
type Tunable interface {
	Key() Key
	Candidates() []LaunchParams
	// Run executes the kernel once with the given launch parameters.
	Run(p LaunchParams)
	// Flops returns the work of one Run for the performance metadata.
	Flops() int64
	// PreTune saves any state the kernel destroys; PostTune restores it.
	PreTune()
	PostTune()
}

// Tuner owns the cache. It is safe for concurrent use: cache lookups are
// mutex-guarded, and cold-key searches are singleflighted (through the
// shared cache.Flight primitive) so N workers hitting the same un-tuned
// kernel perform exactly one search instead of N concurrent ones timing
// candidates against each other's load.
type Tuner struct {
	mu     sync.Mutex
	cache  map[Key]Entry
	flight *rcache.Flight[Key, Entry]

	reps    atomic.Int64
	enabled atomic.Bool

	obsMu   sync.Mutex
	metrics *obs.Registry
	scope   obs.Scope
}

// New returns an enabled tuner with an empty cache.
func New() *Tuner {
	t := &Tuner{cache: make(map[Key]Entry), flight: rcache.NewFlight[Key, Entry]()}
	t.reps.Store(3)
	t.enabled.Store(true)
	return t
}

// Reps is how many timed repetitions each candidate gets (best of).
// Race-safe; defaults to 3.
func (t *Tuner) Reps() int { return int(t.reps.Load()) }

// SetReps sets the per-candidate repetition count (values < 1 clamp to 1
// at search time).
func (t *Tuner) SetReps(n int) { t.reps.Store(int64(n)) }

// Enabled reports whether tuning is active. When false, Execute bypasses
// the search and always runs the first candidate, supporting the ablation
// benchmarks. Race-safe; defaults to true.
func (t *Tuner) Enabled() bool { return t.enabled.Load() }

// SetEnabled toggles tuning.
func (t *Tuner) SetEnabled(on bool) { t.enabled.Store(on) }

// SetObserver attaches a metrics registry and trace scope: each completed
// search records counters and per-kernel GFLOPS gauges into the registry
// and an instant event on the scope. Either may be nil/zero (no-op).
func (t *Tuner) SetObserver(reg *obs.Registry, sc obs.Scope) {
	t.obsMu.Lock()
	t.metrics = reg
	t.scope = sc
	t.obsMu.Unlock()
}

// observeSearch publishes one finished search to the attached observer.
func (t *Tuner) observeSearch(key Key, e Entry) {
	t.obsMu.Lock()
	reg, sc := t.metrics, t.scope
	t.obsMu.Unlock()
	reg.Counter("autotune.searches").Inc()
	reg.Counter("autotune.kernel_runs").Add(int64(e.Runs))
	if e.GFLOPS > 0 {
		reg.Gauge("autotune.gflops." + key.Kernel).Set(e.GFLOPS)
	}
	sc.Instant("autotune", "search", map[string]interface{}{
		"key":     key.String(),
		"workers": e.Params.Workers,
		"block":   e.Params.Block,
		"tried":   e.Tried,
		"gflops":  e.GFLOPS,
	})
}

// lookupOrSearch returns the cached entry for key, or runs search exactly
// once across all concurrent callers (per-key singleflight via the shared
// cache.Flight) and caches its result. If the searcher panics, waiters
// wake with completed=false, re-check the cache, and retry — one of them
// becomes the next searcher — while the panic propagates to the caller
// that ran the search.
func (t *Tuner) lookupOrSearch(key Key, search func() Entry) Entry {
	for {
		if e, ok := t.Lookup(key); ok {
			return e
		}
		e, err, _, completed := t.flight.Do(key, func() (Entry, error) {
			e := search()
			t.mu.Lock()
			t.cache[key] = e
			t.mu.Unlock()
			return e, nil
		})
		if err != nil {
			// The search closure never returns an error; a non-nil error
			// here is a programming bug, not a tunable condition.
			panic(err)
		}
		if completed {
			return e
		}
	}
}

// Lookup returns the cached entry, if any.
func (t *Tuner) Lookup(k Key) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.cache[k]
	return e, ok
}

// Len returns the number of cached entries.
func (t *Tuner) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cache)
}

// Execute runs the tunable with its optimal launch parameters, performing
// the brute-force search on a cache miss (with PreTune/PostTune wrapped
// around the timing runs, as QUDA does for data-destructive kernels).
// Concurrent calls on the same cold key perform exactly one search.
func (t *Tuner) Execute(k Tunable) LaunchParams {
	key := k.Key()
	cands := k.Candidates()
	if len(cands) == 0 {
		panic("autotune: tunable offered no candidates")
	}
	if !t.Enabled() {
		k.Run(cands[0])
		return cands[0]
	}
	e := t.lookupOrSearch(key, func() Entry { return t.search(key, k, cands) })
	k.Run(e.Params)
	return e.Params
}

// Tune performs the search without executing afterwards and caches the
// result; it returns the winning entry. Singleflighted like Execute.
func (t *Tuner) Tune(k Tunable) Entry {
	key := k.Key()
	return t.lookupOrSearch(key, func() Entry { return t.search(key, k, k.Candidates()) })
}

func (t *Tuner) search(key Key, k Tunable, cands []LaunchParams) Entry {
	if len(cands) == 0 {
		panic("autotune: tunable offered no candidates")
	}
	reps := t.Reps()
	if reps < 1 {
		reps = 1
	}
	k.PreTune()
	defer k.PostTune()
	best := Entry{Time: time.Duration(1<<62 - 1), Tried: len(cands)}
	// Warm up once so first-touch costs do not bias candidate 0. The
	// warm-up is counted in Runs (it happened) but not in Tried (no
	// candidate was examined by it).
	k.Run(cands[0])
	runs := 1
	for _, c := range cands {
		var fastest time.Duration = 1<<62 - 1
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			k.Run(c)
			if d := time.Since(t0); d < fastest {
				fastest = d
			}
		}
		runs += reps
		if fastest < best.Time {
			best.Time = fastest
			best.Params = c
		}
	}
	best.Runs = runs
	if s := best.Time.Seconds(); s > 0 {
		best.GFLOPS = float64(k.Flops()) / s / 1e9
	}
	best.TunedAt = time.Now()
	t.observeSearch(key, best)
	return best
}

// modelCostDuration encodes a unit-less model cost in the Entry.Time slot
// as cost seconds. The model cost has no time dimension — the field is
// reused so modelled and measured entries share one cache record — so the
// encoding clamps rather than overflows: NaN and non-positive costs map to
// 0, and costs beyond the int64 nanosecond range (~292 model-years)
// saturate at the maximum Duration instead of wrapping negative.
func modelCostDuration(cost float64) time.Duration {
	sec := cost * float64(time.Second)
	if math.IsNaN(sec) || sec <= 0 {
		return 0
	}
	if sec >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(sec)
}

// SearchModelled is the communication-policy variant: instead of timing
// real runs it minimises a caller-supplied cost model, so the same keyed
// cache serves the paper's communication-policy autotuning where the
// "measurement" is the modelled exchange time. Singleflighted like
// Execute, so concurrent callers evaluate the model once per key.
func (t *Tuner) SearchModelled(key Key, cands []LaunchParams, cost func(LaunchParams) float64) LaunchParams {
	if len(cands) == 0 {
		panic("autotune: no candidates")
	}
	e := t.lookupOrSearch(key, func() Entry {
		best, bestCost := cands[0], cost(cands[0])
		for _, c := range cands[1:] {
			if v := cost(c); v < bestCost {
				best, bestCost = c, v
			}
		}
		e := Entry{
			Params:   best,
			Time:     modelCostDuration(bestCost),
			Tried:    len(cands),
			TunedAt:  time.Now(),
			Comments: "modelled",
		}
		t.observeSearch(key, e)
		return e
	})
	return e.Params
}

// DefaultCandidates enumerates the standard launch-parameter grid:
// power-of-two worker counts up to the machine width crossed with a few
// site-block granularities.
func DefaultCandidates() []LaunchParams {
	maxW := runtime.GOMAXPROCS(0)
	var out []LaunchParams
	for w := 1; w <= maxW; w *= 2 {
		for _, b := range []int{256, 1024, 4096, 16384} {
			out = append(out, LaunchParams{Workers: w, Block: b})
		}
	}
	return out
}

// cacheFile is the JSON serialization of the tune cache.
type cacheFile struct {
	Version string         `json:"version"`
	Entries map[string]rec `json:"entries"`
}

type rec struct {
	Key   Key   `json:"key"`
	Entry Entry `json:"entry"`
}

// Save writes the cache to path (QUDA's tunecache.tsv analogue).
func (t *Tuner) Save(path string) error {
	t.mu.Lock()
	f := cacheFile{Version: "femtoverse-1", Entries: make(map[string]rec, len(t.cache))}
	for k, e := range t.cache {
		f.Entries[k.String()] = rec{Key: k, Entry: e}
	}
	t.mu.Unlock()
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("autotune: marshal cache: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// Load merges a previously saved cache, preferring existing entries.
func (t *Tuner) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("autotune: read cache: %w", err)
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("autotune: parse cache: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range f.Entries {
		if _, exists := t.cache[r.Key]; !exists {
			t.cache[r.Key] = r.Entry
		}
	}
	return nil
}

// Report renders the cache sorted by key, one line per kernel, for the
// -tune diagnostic output of the benchmark CLI.
func (t *Tuner) Report() string {
	t.mu.Lock()
	keys := make([]Key, 0, len(t.cache))
	for k := range t.cache {
		keys = append(keys, k)
	}
	entries := make(map[Key]Entry, len(t.cache))
	for k, e := range t.cache {
		entries[k] = e
	}
	t.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	out := ""
	for _, k := range keys {
		e := entries[k]
		out += fmt.Sprintf("%-60s workers=%-3d block=%-6d %10s %8.2f GF/s\n",
			k.String(), e.Params.Workers, e.Params.Block, e.Time, e.GFLOPS)
	}
	return out
}
