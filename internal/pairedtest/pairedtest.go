// Package pairedtest times a candidate against a reference in one process,
// for the benchmarks that judge a kernel against the one it replaced. The
// host's speed drifts by tens of per cent within minutes, so two
// separately timed runs resolve little, but the ratio of two adjacent
// blocks of about 15 ms each cancels the drift.
package pairedtest

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// Bench runs one pair of blocks per iteration on a locked OS thread, a
// block of cand and one of ref, the order alternating from one pair to the
// next so that neither side always runs on the warmer cache or the later
// clock, and reports the median cand/ref ratio with its 95 % bootstrap
// interval (2000 resamples, fixed seed) as ratio, ratio_lo and ratio_hi.
// Run with -cpu 1 -benchtime 60x: 60 pairs. Nothing asserts on the
// numbers; EXPERIMENTS.md records them.
func Bench(b *testing.B, cand, ref func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const block = 15 * time.Millisecond
	run := func(f func(), reps int) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return time.Since(start)
	}
	ref()
	cand()
	reps := 1
	for {
		if el := run(ref, reps); el >= block/4 {
			reps = max(1, int(float64(reps)*float64(block)/float64(el)))
			break
		}
		reps *= 2
	}
	var ratios []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tc, tr time.Duration
		if i%2 == 0 {
			tc, tr = run(cand, reps), run(ref, reps)
		} else {
			tr, tc = run(ref, reps), run(cand, reps)
		}
		ratios = append(ratios, float64(tc)/float64(tr))
	}
	median := func(v []float64) float64 {
		s := slices.Clone(v)
		slices.Sort(s)
		return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
	}
	rng := rand.New(rand.NewSource(1))
	meds := make([]float64, 2000)
	sample := make([]float64, len(ratios))
	for k := range meds {
		for i := range sample {
			sample[i] = ratios[rng.Intn(len(ratios))]
		}
		meds[k] = median(sample)
	}
	slices.Sort(meds)
	b.ReportMetric(median(ratios), "ratio")
	b.ReportMetric(meds[len(meds)*25/1000], "ratio_lo")
	b.ReportMetric(meds[len(meds)*975/1000], "ratio_hi")
}
