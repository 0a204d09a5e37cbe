package contract

import (
	"math"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/prop"
)

func TestMesonGamma5ReproducesPion(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 6)
	cfg := gauge.NewWeak(g, 71, 0.25)
	cfg.FlipTimeBoundary()
	_, p := solveProp(t, cfg, 0.25)
	pion := Pion2pt(p, 0)
	meson := meson2pt(p, 0, linalg.Gamma(4))
	for tt := range pion {
		if math.Abs(pion[tt]-meson[tt]) > 1e-10*math.Abs(pion[tt]) {
			t.Fatalf("meson2pt(gamma_5) != Pion2pt at t=%d: %v vs %v", tt, meson[tt], pion[tt])
		}
	}
}

// meson2pt returns the zero-momentum correlator of the meson with spin
// structure Gamma:
//
//	C(t) = sum_x Tr[ Gamma S(x,0) Gamma gamma_5 S(x,0)^dag gamma_5 ],
//
// the generic bilinear two-point function (Gamma = gamma_5 is the pion
// and reproduces Pion2pt exactly; Gamma = gamma_k averaged over k is the
// rho; Gamma = 1 the scalar).
func meson2pt(p *prop.Propagator, t0 int, gamma linalg.SpinMatrix) []float64 {
	g := p.G
	tExt := g.T()
	// C = Tr[Gamma S Gamma^dag gamma_5 S^dag gamma_5]. With M1 = Gamma S
	// and M2 = S Gamma this reduces (gamma_5 diagonal = +-1) to the
	// componentwise form
	//
	//	C = sum_{ij} s_i s_j M1[i][j] conj(M2[i][j]),
	//
	// where s_i is the gamma_5 sign of the spin part of index i. For
	// Gamma = gamma_5 it collapses to sum |S|^2, i.e. Pion2pt.
	sign := func(idx int) float64 {
		if idx < 6 {
			return 1
		}
		return -1
	}
	out := make([]float64, tExt)
	for ts := 0; ts < tExt; ts++ {
		slice := g.TimeSlice(ts)
		sum := linalg.ReduceFloat64(len(slice), func(lo, hi int) float64 {
			acc := 0.0
			for k := lo; k < hi; k++ {
				m := siteMatrix(p, slice[k])
				var m1, m2 [12][12]complex128
				for i := 0; i < 12; i++ {
					si, ci := i/3, i%3
					for j := 0; j < 12; j++ {
						var a, b complex128
						for s2 := 0; s2 < 4; s2++ {
							if gamma[si][s2] != 0 {
								a += gamma[si][s2] * m[s2*3+ci][j]
							}
						}
						sj, cj := j/3, j%3
						for s2 := 0; s2 < 4; s2++ {
							if gamma[s2][sj] != 0 {
								b += m[i][s2*3+cj] * gamma[s2][sj]
							}
						}
						m1[i][j], m2[i][j] = a, b
					}
				}
				for i := 0; i < 12; i++ {
					for j := 0; j < 12; j++ {
						v := m1[i][j] * complex(real(m2[i][j]), -imag(m2[i][j]))
						acc += sign(i) * sign(j) * real(v)
					}
				}
			}
			return acc
		})
		out[(ts-t0+tExt)%tExt] = sum
	}
	return out
}
