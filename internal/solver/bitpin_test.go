package solver

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
)

// TestBitPinCGNEMixed fixes one mixed-precision solution to the bit: the
// SHA-256 of the solution's float64 patterns and the iteration count,
// captured at the commit before the fused Schur kernels landed, on the
// benchmark's lattice (hv = 64, Ls = 4).
func TestBitPinCGNEMixed(t *testing.T) {
	const (
		pinHash  = "33d871c1dd76f39b2b02d2edca58552f50e10564ae701f26172c98e8ba33eee3"
		pinIters = 161
	)
	g := lattice.MustNew(2, 2, 4, 8)
	m, err := dirac.NewMobius(gauge.NewWeak(g, 77, 0.3),
		dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	op, err := dirac.NewMobiusEO(m)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(rand.New(rand.NewSource(5)), op.Size())
	x, st, err := CGNEMixed(context.Background(), op, dirac.NewMobiusEO32(op), b,
		Params{Tol: 1e-9, Precision: Single})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 16*len(x))
	for _, c := range x {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(real(c)))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(imag(c)))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != pinHash {
		t.Errorf("solution hash %s, pinned %s", got, pinHash)
	}
	if st.Iterations != pinIters {
		t.Errorf("%d iterations, pinned %d", st.Iterations, pinIters)
	}
}
