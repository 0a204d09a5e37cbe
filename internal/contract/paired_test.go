package contract

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// benchPaired times cand against ref in one process by adjacent blocks of
// about 15 ms each, alternating which runs first, and reports the median
// block ratio with its 95% bootstrap interval - internal/dirac's
// paired_test.go helper, which a test file of another package cannot
// import. Nothing asserts on the numbers; EXPERIMENTS.md records them.
// Run with -cpu 1 -benchtime 60x: 60 pairs.
func benchPaired(b *testing.B, cand, ref func()) {
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

// BenchmarkContractConfigPaired is contractConfig's work on one fh-*
// configuration (2x2x4x8) - Proton2pt then ProtonFH3pt, with u = d and
// fhU = fhD as a campaign calls them - judged in pairs against the
// contractions they replaced (ref_test.go): on one lane (one-lane), on the
// lane budget of two (two-lanes, which needs -cpu 2 to have a second
// core), two lanes against one (spread), and an A/A calibration (aa).
func BenchmarkContractConfigPaired(b *testing.B) {
	g := lattice.MustNew(2, 2, 4, 8)
	u, fh := testProp(g, 1, "random"), testProp(g, 2, "random")
	onLanes := func(n int) func() {
		return func() {
			old := linalg.DefaultWorkers
			linalg.DefaultWorkers = n
			Proton2pt(u, u, 0)
			ProtonFH3pt(u, u, fh, fh, 0)
			linalg.DefaultWorkers = old
		}
	}
	ref := func() {
		proton2ptRef(u, u, 0)
		protonFH3ptRef(u, u, fh, fh, 0)
	}
	for _, c := range []struct {
		name      string
		cand, ref func()
	}{
		{"one-lane", onLanes(1), ref},
		{"two-lanes", onLanes(2), ref},
		{"spread", onLanes(2), onLanes(1)},
		{"aa", onLanes(1), onLanes(1)},
	} {
		b.Run(c.name, func(b *testing.B) { benchPaired(b, c.cand, c.ref) })
	}
}
