package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tasks")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters never regress
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("tasks") != c {
		t.Fatal("Counter is not get-or-create")
	}

	g := r.Gauge("util")
	g.Set(0.5)
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", got)
	}

	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Sum() != 556.5 {
		t.Fatalf("hist sum = %v, want 556.5", h.Sum())
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms", len(s.Histograms))
	}
	// 0.5 and 1 land in the le-1 bucket (inclusive upper edges), 5 in
	// le-10, 50 in le-100, 500 overflows.
	want := []int64{2, 1, 1, 1}
	hv := s.Histograms[0]
	if hv.Count != 5 {
		t.Fatalf("hist count = %d, want 5", hv.Count)
	}
	for i, n := range want {
		if hv.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hv.Counts[i], n, hv.Counts)
		}
	}
}

// TestNilRegistryNoOp pins the zero-cost uninstrumented path: every
// operation on a nil registry and nil instruments must be a safe no-op.
func TestNilRegistryNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("z", nil)
	h.Observe(1)
	if h.Sum() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if s.Text() != "" {
		t.Fatal("nil registry text not empty")
	}
}

// TestConcurrentInstruments exercises the lock-free paths under the race
// detector: concurrent get-or-create plus concurrent updates must land
// every increment.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			c := r.Counter("n")
			g := r.Gauge("g")
			h := r.Histogram("h", []float64{0.5})
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(1)
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Value(); got != 1 {
		t.Fatalf("gauge = %v, want 1", got)
	}
	if got := r.Snapshot().Histograms[0].Count; got != workers*per {
		t.Fatalf("hist = %d, want %d", got, workers*per)
	}
}

func TestSnapshotDeterministicAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Add(2)
	r.Gauge("z").Set(3)
	r.Histogram("m", []float64{1}).Observe(0.5)

	s1 := r.Snapshot()
	s2 := r.Snapshot()
	j1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatal("snapshot JSON not deterministic")
	}
	if s1.Counters[0].Name != "a" || s1.Counters[1].Name != "b" {
		t.Fatalf("counters not sorted: %+v", s1.Counters)
	}
	var round Snapshot
	if err := json.Unmarshal(j1, &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	text := s1.Text()
	for _, want := range []string{"a", "b", "z", "m", "n=1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text rendering missing %q:\n%s", want, text)
		}
	}
}

// TestRankMetric pins the per-rank name derivation the distributed wire
// layer keys its breakdowns by.
func TestRankMetric(t *testing.T) {
	if got := RankMetric("wire.resends", 3); got != "wire.resends.rank3" {
		t.Fatalf("RankMetric = %q", got)
	}
	r := NewRegistry()
	r.Counter(RankMetric("wire.deaths", 0)).Inc()
	r.Counter(RankMetric("wire.deaths", 1)).Add(2)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "wire.deaths.rank0" || s.Counters[1].Value != 2 {
		t.Fatalf("per-rank counters misrendered: %+v", s.Counters)
	}
}
