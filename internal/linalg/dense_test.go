package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	// Diagonal dominance guarantees a well-conditioned system.
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(2 * n)
	}
	return a
}

func TestSolveRealRecoversKnownSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 12
	a := randMat(rng, n)
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i] += a[i*n+j] * want[j]
		}
	}
	got, err := SolveReal(n, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestInvRealTimesMatrixIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 9
	a := randMat(rng, n)
	inv, err := InvReal(n, a)
	if err != nil {
		t.Fatal(err)
	}
	prod := matMulReal(n, a, inv)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod[i*n+j]-want) > 1e-9 {
				t.Fatalf("(A A^-1)[%d][%d] = %v", i, j, prod[i*n+j])
			}
		}
	}
}

func TestSingularMatrixRejected(t *testing.T) {
	n := 3
	a := make([]float64, n*n) // all zero
	if _, err := LUReal(n, append([]float64(nil), a...)); err == nil {
		t.Fatal("zero matrix factored")
	}
	if _, err := SolveReal(n, a, make([]float64, n)); err == nil {
		t.Fatal("zero system solved")
	}
	if _, err := InvReal(n, a); err == nil {
		t.Fatal("zero matrix inverted")
	}
	// Rank-deficient: two identical rows.
	b := []float64{1, 2, 3, 1, 2, 3, 0, 1, 4}
	if _, err := InvReal(3, b); err == nil {
		t.Fatal("rank-deficient matrix inverted")
	}
}

func TestShapeErrors(t *testing.T) {
	if _, err := LUReal(3, make([]float64, 4)); err == nil {
		t.Fatal("wrong element count accepted")
	}
	if _, err := SolveReal(3, make([]float64, 9), make([]float64, 2)); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
}

func TestTransposeRealInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 7
	a := randMat(rng, n)
	tt := TransposeReal(n, TransposeReal(n, a))
	for i := range a {
		if a[i] != tt[i] {
			t.Fatal("double transpose changed the matrix")
		}
	}
}

func TestPivotingHandlesZeroLeadingEntry(t *testing.T) {
	// Leading zero forces a row swap.
	a := []float64{0, 1, 1, 0}
	x, err := SolveReal(2, a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-5) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveInverseConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5
		a := randMat(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, err := SolveReal(n, a, b)
		if err != nil {
			return false
		}
		inv, err := InvReal(n, a)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			x2 := 0.0
			for j := 0; j < n; j++ {
				x2 += inv[i*n+j] * b[j]
			}
			if math.Abs(x1[i]-x2) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// matMulReal returns the product of two row-major n x n matrices.
func matMulReal(n int, a, b []float64) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	return c
}
