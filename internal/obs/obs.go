// Package obs is the observability layer: a dependency-free metrics
// registry (counters, gauges, fixed-bucket histograms) and a span tracer
// exporting Chrome trace_event JSON, threaded through the job runtime and
// the solvers. It is the live analogue of the paper's measured
// operational claims - sustained GFLOPS per solve (Figs. 3-4) and
// scheduler utilization/idle-time recovery (Figs. 5-7) - in the same
// spirit as QUDA's per-kernel performance metadata and mpi_jm's
// utilization accounting (Berkowitz et al., SC 2018).
//
// Two design rules govern the package:
//
//   - The uninstrumented path pays near zero. Every instrument and the
//     registry itself are nil-safe: a nil *Registry hands out nil
//     instruments whose methods are single-branch no-ops, so hot kernels
//     carry instrumentation unconditionally and the cost appears only
//     when a caller actually attaches a registry.
//   - No bare time.Now in the tracing core. The Tracer runs on an
//     injected Clock, so a replayed or simulated campaign produces a
//     byte-identical trace (the golden tests pin this) while production
//     binaries simply inject the wall clock.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value
// and the nil pointer are both usable; nil is the no-op form handed out
// by a nil Registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n < 0 is ignored; counters never regress).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move both ways (utilization,
// GFLOPS, queue depth). Nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: bounds are the inclusive upper
// edges of the finite buckets, with an implicit +Inf overflow bucket.
// Observe is lock-free (one atomic add on the bucket, a CAS on the sum),
// so it can sit on the solve hot path.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DefaultSecondsBuckets are the histogram bounds used when a caller
// passes nil bounds: exponential from 100us to ~100s, the span between a
// BLAS-1 kernel and a full laptop-scale configuration solve.
var DefaultSecondsBuckets = []float64{
	1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30, 100,
}

// Registry is a keyed collection of instruments. Get-or-create lookups
// take a mutex; the instruments themselves are atomics, so the pattern
// is: resolve instruments once at setup, hit them lock-free thereafter.
// A nil *Registry is the no-op default: it hands out nil instruments and
// renders empty snapshots.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// RankMetric derives the per-rank variant of a metric name. Distributed
// subsystems (internal/wire) record both the fleet aggregate under the
// base name and a per-rank breakdown under these derived names, so one
// snapshot answers "how much?" and "which rank?" at once.
func RankMetric(base string, rank int) string {
	return fmt.Sprintf("%s.rank%d", base, rank)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds select DefaultSecondsBuckets).
// Bounds must be sorted ascending; later callers' bounds are ignored in
// favour of the first creation's.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefaultSecondsBuckets
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("obs: histogram %q bounds not sorted", name))
		}
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramValue is one histogram in a snapshot: bucket upper bounds and
// the per-bucket counts (the final count is the +Inf overflow bucket).
type HistogramValue struct {
	Name   string    `json:"name"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Snapshot is a point-in-time copy of every instrument, sorted by name
// within each kind so rendering is deterministic. Snapshots taken
// mid-run are internally consistent: a histogram's Count is derived
// from the very bucket reads in Counts (never a separately-read
// aggregate that could tear against in-flight observations), so
// Count == sum(Counts) always holds, and repeated snapshots are
// monotonic per bucket. Sum may trail Count by observations whose
// bucket landed before their sum accumulation; end-of-run snapshots
// (the quiescent case) are exact.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot captures the registry. Safe on a nil registry (empty result).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counterNames := make([]string, 0, len(r.counters))
	for name := range r.counters {
		counterNames = append(counterNames, name)
	}
	gaugeNames := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		gaugeNames = append(gaugeNames, name)
	}
	histNames := make([]string, 0, len(r.hists))
	for name := range r.hists {
		histNames = append(histNames, name)
	}
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.Unlock()
	sort.Strings(counterNames)
	sort.Strings(gaugeNames)
	sort.Strings(histNames)
	for _, name := range counterNames {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: counters[name].Value()})
	}
	for _, name := range gaugeNames {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: gauges[name].Value()})
	}
	for _, name := range histNames {
		h := hists[name]
		hv := HistogramValue{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		// Count is the sum of the bucket reads, so every snapshot is
		// internally consistent under concurrent writers. Sum is read
		// before the buckets: an observation's sum lands after its bucket,
		// so a sum read taken first covers only observations the later
		// bucket reads also count - Sum trails Count, and the rendered mean
		// never includes uncounted mass.
		hv.Sum = h.Sum()
		for i := range h.counts {
			c := h.counts[i].Load()
			hv.Counts[i] = c
			hv.Count += c
		}
		s.Histograms = append(s.Histograms, hv)
	}
	return s
}

// CounterValue returns the value of the named counter in the snapshot
// and whether it is present. Consumers that cross-check a snapshot
// against an external report (the scenario soak's obs-consistency
// invariant) use it instead of re-deriving the sorted layout.
func (s Snapshot) CounterValue(name string) (int64, bool) {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value, true
	}
	return 0, false
}

// GaugeValue returns the value of the named gauge in the snapshot and
// whether it is present.
func (s Snapshot) GaugeValue(name string) (float64, bool) {
	i := sort.Search(len(s.Gauges), func(i int) bool { return s.Gauges[i].Name >= name })
	if i < len(s.Gauges) && s.Gauges[i].Name == name {
		return s.Gauges[i].Value, true
	}
	return 0, false
}

// Text renders the snapshot as aligned human-readable lines, one
// instrument per line, histograms with count/mean and their occupied
// buckets.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%-44s %12d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "%-44s %12.4g\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		fmt.Fprintf(&b, "%-44s n=%-8d mean=%-12.4g", h.Name, h.Count, mean)
		for i, n := range h.Counts {
			if n == 0 {
				continue
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(&b, " le%g:%d", h.Bounds[i], n)
			} else {
				fmt.Fprintf(&b, " inf:%d", n)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
