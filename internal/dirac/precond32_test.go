package dirac

import (
	"math"
	"math/rand"
	"testing"

	"femtoverse/internal/linalg"
)

func TestMobiusEO32TracksDoublePrecision(t *testing.T) {
	p := testMobiusEO(t, 51)
	q := NewMobiusEO32(p)
	rng := rand.New(rand.NewSource(1))
	src := randField(rng, p.HalfSize())
	src32 := make([]complex64, len(src))
	linalg.Demote(src32, src)

	want := make([]complex128, len(src))
	p.Apply(want, src)
	got32 := make([]complex64, len(src))
	q.Apply(got32, src32)
	got := make([]complex128, len(src))
	linalg.Promote(got, got32)

	norm := math.Sqrt(linalg.NormSq(want, 0))
	if d := fieldDist(want, got); d > 1e-4*norm {
		t.Fatalf("single-precision Schur drifted: %g vs norm %g", d, norm)
	}
}

func TestMobiusEO32DaggerTracksDouble(t *testing.T) {
	p := testMobiusEO(t, 53)
	q := NewMobiusEO32(p)
	rng := rand.New(rand.NewSource(2))
	src := randField(rng, p.HalfSize())
	src32 := make([]complex64, len(src))
	linalg.Demote(src32, src)

	want := make([]complex128, len(src))
	p.ApplyDagger(want, src)
	got32 := make([]complex64, len(src))
	q.ApplyDagger(got32, src32)
	got := make([]complex128, len(src))
	linalg.Promote(got, got32)

	norm := math.Sqrt(linalg.NormSq(want, 0))
	if d := fieldDist(want, got); d > 1e-4*norm {
		t.Fatalf("single-precision dagger drifted: %g vs norm %g", d, norm)
	}
}

func TestMobiusEO32NormalMatchesDouble(t *testing.T) {
	p := testMobiusEO(t, 55)
	q := NewMobiusEO32(p)
	rng := rand.New(rand.NewSource(3))
	src := randField(rng, p.HalfSize())
	src32 := make([]complex64, len(src))
	linalg.Demote(src32, src)

	want := make([]complex128, len(src))
	p.ApplyNormal([][]complex128{want}, [][]complex128{src})

	got32 := make([]complex64, len(src))
	q.ApplyNormal([][]complex64{got32}, [][]complex64{src32})
	got := make([]complex128, len(src))
	linalg.Promote(got, got32)

	norm := math.Sqrt(linalg.NormSq(want, 0))
	if d := fieldDist(want, got); d > 5e-4*norm {
		t.Fatalf("single-precision normal op drifted: %g vs norm %g", d, norm)
	}
}
