package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarianceBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if m := Mean(xs); m != 3 {
		t.Fatalf("mean = %v", m)
	}
	if v := variance(xs); math.Abs(v-2.5) > 1e-14 {
		t.Fatalf("variance = %v", v)
	}
	if Mean(nil) != 0 || variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestJackknifeOfMeanMatchesStdErr(t *testing.T) {
	// For f = identity on scalars, jackknife error equals standard error.
	rng := rand.New(rand.NewSource(1))
	n := 200
	samples := make([][]float64, n)
	flat := make([]float64, n)
	for i := range samples {
		x := rng.NormFloat64()
		samples[i] = []float64{x}
		flat[i] = x
	}
	val, err := Jackknife(samples, func(m []float64) float64 { return m[0] })
	if math.Abs(val-Mean(flat)) > 1e-12 {
		t.Fatalf("jackknife mean %v vs %v", val, Mean(flat))
	}
	if se := math.Sqrt(variance(flat) / float64(n)); math.Abs(err-se) > 1e-10 {
		t.Fatalf("jackknife err %v vs stderr %v", err, se)
	}
	// Unit Gaussians: the error of the mean is 1/sqrt(n) in expectation.
	if want := 1 / math.Sqrt(float64(n)); math.Abs(err-want) > 0.3*want {
		t.Fatalf("jackknife err %v vs 1/sqrt(n) = %v", err, want)
	}
}

func TestJackknifeNonlinearBiasSmall(t *testing.T) {
	// f = square of the mean; jackknife must give a sensible error that
	// shrinks with N.
	rng := rand.New(rand.NewSource(2))
	mk := func(n int) [][]float64 {
		s := make([][]float64, n)
		for i := range s {
			s[i] = []float64{2 + 0.3*rng.NormFloat64()}
		}
		return s
	}
	_, err100 := Jackknife(mk(100), func(m []float64) float64 { return m[0] * m[0] })
	_, err10000 := Jackknife(mk(10000), func(m []float64) float64 { return m[0] * m[0] })
	if err10000 >= err100 {
		t.Fatalf("jackknife error did not shrink: %v vs %v", err100, err10000)
	}
}

func TestJackknifeVecShapes(t *testing.T) {
	samples := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	val, errs := JackknifeVec(samples, func(m []float64) []float64 {
		return []float64{m[0] + m[1]}
	})
	if len(val) != 1 || len(errs) != 1 {
		t.Fatal("shape wrong")
	}
	if math.Abs(val[0]-7) > 1e-14 {
		t.Fatalf("val = %v", val[0])
	}
	if errs[0] <= 0 {
		t.Fatal("error must be positive for varying samples")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 0.5, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 || h.Counts[5] != 1 || h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.NSamples != 7 {
		t.Fatalf("n = %d", h.NSamples)
	}
	if c := h.BinCenter(0); math.Abs(c-0.5) > 1e-14 {
		t.Fatalf("center = %v", c)
	}
	if m := h.Mode(); math.Abs(m-0.5) > 1e-14 {
		t.Fatalf("mode = %v", m)
	}
}

func TestHistogramRejectsBadRange(t *testing.T) {
	if _, err := NewHistogram(5, 5, 10); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 1); p != 5 {
		t.Fatalf("p1 = %v", p)
	}
	if p := Percentile(xs, 0.5); p != 3 {
		t.Fatalf("median = %v", p)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty percentile")
	}
}

func TestJackknifePropertyMeanInvariance(t *testing.T) {
	// The jackknife estimate of any linear functional equals the
	// functional of the mean.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		samples := make([][]float64, n)
		for i := range samples {
			samples[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		val, _ := Jackknife(samples, func(m []float64) float64 { return 2*m[0] - 3*m[1] })
		mean := MeanVec(samples)
		want := 2*mean[0] - 3*mean[1]
		return math.Abs(val-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// variance returns the unbiased sample variance.
func variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}
