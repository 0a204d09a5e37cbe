// Package stats provides the ensemble statistics used throughout the
// analysis: jackknife resampling, percentiles, and the histogramming used
// by the paper's Fig. 7.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanVec returns the elementwise mean of equal-length sample vectors.
func MeanVec(samples [][]float64) []float64 {
	if len(samples) == 0 {
		return nil
	}
	n := len(samples[0])
	out := make([]float64, n)
	for _, s := range samples {
		if len(s) != n {
			panic("stats: ragged samples")
		}
		for i, v := range s {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(samples))
	}
	return out
}

// JackknifeSamples returns the N leave-one-out means of the sample vectors:
// sample j is the mean over all configurations except j.
func JackknifeSamples(samples [][]float64) [][]float64 {
	nCfg := len(samples)
	if nCfg < 2 {
		panic("stats: jackknife needs >= 2 samples")
	}
	n := len(samples[0])
	total := make([]float64, n)
	for _, s := range samples {
		for i, v := range s {
			total[i] += v
		}
	}
	out := make([][]float64, nCfg)
	for j := range samples {
		jk := make([]float64, n)
		for i := range jk {
			jk[i] = (total[i] - samples[j][i]) / float64(nCfg-1)
		}
		out[j] = jk
	}
	return out
}

// Jackknife returns the mean and jackknife error of a derived scalar: f is
// evaluated on each leave-one-out mean vector and on the full mean, and
// the error is sqrt((N-1)/N * sum (f_j - f_bar)^2).
func Jackknife(samples [][]float64, f func(mean []float64) float64) (value, err float64) {
	jks := JackknifeSamples(samples)
	n := float64(len(jks))
	vals := make([]float64, len(jks))
	for j, jk := range jks {
		vals[j] = f(jk)
	}
	fbar := Mean(vals)
	ss := 0.0
	for _, v := range vals {
		d := v - fbar
		ss += d * d
	}
	return f(MeanVec(samples)), math.Sqrt((n - 1) / n * ss)
}

// JackknifeVec is Jackknife for vector-valued derived quantities, giving
// elementwise means and errors.
func JackknifeVec(samples [][]float64, f func(mean []float64) []float64) (value, err []float64) {
	jks := JackknifeSamples(samples)
	n := float64(len(jks))
	var vals [][]float64
	for _, jk := range jks {
		vals = append(vals, f(jk))
	}
	fbar := MeanVec(vals)
	errs := make([]float64, len(fbar))
	for _, v := range vals {
		for i := range errs {
			d := v[i] - fbar[i]
			errs[i] += d * d
		}
	}
	for i := range errs {
		errs[i] = math.Sqrt((n - 1) / n * errs[i])
	}
	return f(MeanVec(samples)), errs
}

// Histogram is a fixed-range linear-bin histogram (Fig. 7 of the paper is
// one of these over per-job solver performance).
type Histogram struct {
	Lo, Hi   float64
	Counts   []int
	Under    int
	Over     int
	NSamples int
}

// NewHistogram builds a histogram over [lo, hi) with n bins.
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if hi <= lo || n < 1 {
		return nil, fmt.Errorf("stats: bad histogram range [%g, %g) with %d bins", lo, hi, n)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.NSamples++
	if x < h.Lo {
		h.Under++
		return
	}
	if x >= h.Hi {
		h.Over++
		return
	}
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i == len(h.Counts) {
		i--
	}
	h.Counts[i]++
}

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Mode returns the center of the most populated bin.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return h.BinCenter(best)
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs by sorting a copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 1 {
		return c[len(c)-1]
	}
	idx := p * float64(len(c)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo]*(1-frac) + c[lo+1]*frac
}
