package obs

import (
	"sync"
	"testing"
)

// TestSnapshotUnderConcurrentWrites hammers Snapshot against concurrent
// counter/gauge/histogram writers and pins the mid-campaign consistency
// contract a live /metrics endpoint depends on:
//
//   - a histogram's Count equals the sum of its bucket Counts in every
//     snapshot (no torn aggregate-vs-bucket reads),
//   - counters, histogram counts, and per-bucket counts never decrease
//     across consecutive snapshots,
//   - the histogram Sum never leads the counted observations (the
//     rendered mean never includes uncounted mass).
//
// Run under -race this also audits the instruments' atomics themselves.
func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hammer.counter")
			g := r.Gauge("hammer.gauge")
			h := r.Histogram("hammer.hist", []float64{1, 2, 4, 8})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 10))
			}
		}()
	}

	var prevCounter, prevHistCount int64
	var prevBuckets []int64
	var prevSum float64
	for i := 0; i < 500; i++ {
		s := r.Snapshot()
		cv, ok := s.CounterValue("hammer.counter")
		if ok && cv < prevCounter {
			t.Fatalf("snapshot %d: counter went backwards: %d -> %d", i, prevCounter, cv)
		}
		if ok {
			prevCounter = cv
		}
		for _, h := range s.Histograms {
			var n int64
			for _, c := range h.Counts {
				n += c
			}
			if h.Count != n {
				t.Fatalf("snapshot %d: histogram %s torn: Count %d != sum of buckets %d", i, h.Name, h.Count, n)
			}
			if h.Count < prevHistCount {
				t.Fatalf("snapshot %d: histogram count went backwards: %d -> %d", i, prevHistCount, h.Count)
			}
			// Every observed value is in [0,9]; a Sum leading the counted
			// observations would push the implied mean past the range.
			if h.Count > 0 && h.Sum/float64(h.Count) > 9 {
				t.Fatalf("snapshot %d: mean %g exceeds max observed value: Sum leads Count", i, h.Sum/float64(h.Count))
			}
			if h.Sum < prevSum {
				t.Fatalf("snapshot %d: histogram sum went backwards: %g -> %g", i, prevSum, h.Sum)
			}
			prevSum = h.Sum
			for b, c := range h.Counts {
				if prevBuckets != nil && c < prevBuckets[b] {
					t.Fatalf("snapshot %d: bucket %d went backwards: %d -> %d", i, b, prevBuckets[b], c)
				}
			}
			prevBuckets = append(prevBuckets[:0], h.Counts...)
			prevHistCount = h.Count
		}
	}
	close(stop)
	wg.Wait()

	// Quiescent: the aggregates and the snapshot agree exactly. Every
	// iteration that counted also observed, so the counter is the number
	// of observations.
	s := r.Snapshot()
	h := r.Histogram("hammer.hist", nil)
	n, _ := s.CounterValue("hammer.counter")
	for _, hv := range s.Histograms {
		if hv.Count != n {
			t.Fatalf("quiescent snapshot count %d != observations %d", hv.Count, n)
		}
		if hv.Sum != h.Sum() {
			t.Fatalf("quiescent snapshot sum %g != histogram sum %g", hv.Sum, h.Sum())
		}
	}
}
