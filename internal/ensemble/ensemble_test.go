package ensemble

import (
	"math"
	"testing"

	"femtoverse/internal/stats"
)

func TestValidation(t *testing.T) {
	p := A09M310(100, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.GA != 1.271 {
		t.Fatalf("a09m310 calibrated to gA = %v, want the paper's 1.271", p.GA)
	}
	bad := p
	bad.MN = 0.1 // below 3/2 m_pi
	if err := bad.Validate(); err == nil {
		t.Fatal("StoN-violating masses accepted")
	}
	bad = p
	bad.N = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("single config accepted")
	}
	bad = p
	bad.T = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("tiny T accepted")
	}
}

func TestGeneratedMeansMatchModel(t *testing.T) {
	p := A09M310(4000, 2)
	c2, cfh, err := GenerateFH(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2) != p.N || len(c2[0]) != p.T {
		t.Fatalf("shape %dx%d", len(c2), len(c2[0]))
	}
	m2 := stats.MeanVec(c2)
	mfh := stats.MeanVec(cfh)
	// At early times (noise small) the ensemble means must track the
	// model to a few standard errors.
	for tt := 0; tt < 5; tt++ {
		tf := float64(tt)
		if rel := math.Abs(m2[tt]-p.C2Mean(tf)) / p.C2Mean(tf); rel > 0.02 {
			t.Fatalf("C2 mean off at t=%d: rel %g", tt, rel)
		}
		r := mfh[tt] / m2[tt]
		if math.Abs(r-p.RMean(tf)) > 0.05*(1+math.Abs(p.RMean(tf))) {
			t.Fatalf("ratio off at t=%d: %g vs %g", tt, r, p.RMean(tf))
		}
	}
}

func TestNoiseGrowsExponentially(t *testing.T) {
	// The Parisi-Lepage property: the relative error of C2 must grow
	// with t at a rate consistent with exp[(MN - 1.5 mpi) t].
	p := A09M310(2000, 3)
	c2, _, err := GenerateFH(p)
	if err != nil {
		t.Fatal(err)
	}
	relErr := func(tt int) float64 {
		col := make([]float64, p.N)
		for i := range c2 {
			col[i] = c2[i][tt]
		}
		return stdDev(col) / math.Abs(stats.Mean(col))
	}
	r2, r10 := relErr(2), relErr(10)
	growth := r10 / r2
	want := math.Exp(p.StoNExponent() * 8)
	if growth < want/2 || growth > want*2 {
		t.Fatalf("noise growth %g, Parisi-Lepage predicts %g", growth, want)
	}
}

func TestTraditionalNoiseSetBySinkTime(t *testing.T) {
	p := A09M310(1500, 5)
	data, err := GenerateTraditional(p, []int{6, 10})
	if err != nil {
		t.Fatal(err)
	}
	relErrMid := func(ts int) float64 {
		col := make([]float64, p.N)
		for i, row := range data[ts] {
			col[i] = row[ts/2]
		}
		return stdDev(col)
	}
	e6, e10 := relErrMid(6), relErrMid(10)
	want := math.Exp(p.StoNExponent() * 4)
	if e10/e6 < want/2 {
		t.Fatalf("traditional noise should explode with tsep: %g -> %g (want x%g)", e6, e10, want)
	}
}

func TestTraditionalRejectsBadTsep(t *testing.T) {
	p := A09M310(10, 6)
	if _, err := GenerateTraditional(p, []int{1}); err == nil {
		t.Fatal("tsep 1 accepted")
	}
	if _, err := GenerateTraditional(p, []int{p.T}); err == nil {
		t.Fatal("tsep = T accepted")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	p := A09M310(50, 7)
	a2, af, _ := GenerateFH(p)
	b2, bf, _ := GenerateFH(p)
	for i := range a2 {
		for tt := range a2[i] {
			if a2[i][tt] != b2[i][tt] || af[i][tt] != bf[i][tt] {
				t.Fatal("generator not deterministic")
			}
		}
	}
}

// stdDev returns the unbiased sample standard deviation of xs.
func stdDev(xs []float64) float64 {
	m := stats.Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}
