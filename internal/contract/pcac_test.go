package contract

import (
	"math"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/prop"
)

// TestPCACWardIdentity checks the axial Ward identity on real solves: the
// PCAC quark mass m_PCAC(t) = d_t C_{A4 P} / 2 C_PP plateaus, and -
// because the additive offset (m_res and normalization) is mass-
// independent - the *difference* of PCAC masses at two bare masses equals
// the bare-mass difference.
func TestPCACWardIdentity(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 12)
	cfg := gauge.NewUnit(g)
	cfg.FlipTimeBoundary()

	plateau := func(mass float64) float64 {
		_, p := solveProp(t, cfg, mass)
		pc := pcacMass(p, 0)
		// Average over the plateau window t = 3..6, checking flatness.
		sum, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
		for tt := 3; tt <= 6; tt++ {
			v := pc[tt]
			if math.IsNaN(v) {
				t.Fatalf("PCAC mass undefined at t=%d", tt)
			}
			sum += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > 0.02 {
			t.Fatalf("PCAC not plateauing at m=%v: spread %v..%v", mass, lo, hi)
		}
		return sum / 4
	}
	m1 := plateau(0.1)
	m2 := plateau(0.3)
	if m1 <= 0 || m2 <= m1 {
		t.Fatalf("PCAC masses not ordered: %v, %v", m1, m2)
	}
	// Ward identity: the difference equals the bare-mass difference.
	if d := (m2 - m1) - 0.2; math.Abs(d) > 0.01 {
		t.Fatalf("PCAC mass difference %v, bare difference 0.2", m2-m1)
	}
}

// TestCrossMesonReducesToPion verifies the mixed-bilinear correlator
// collapses to the pseudoscalar one at equal gamma_5 insertions.
func TestCrossMesonReducesToPion(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 6)
	cfg := gauge.NewWeak(g, 111, 0.25)
	cfg.FlipTimeBoundary()
	_, p := solveProp(t, cfg, 0.3)
	g5 := linalg.Gamma(4)
	cross := crossMeson2pt(p, 0, g5, g5)
	pion := Pion2pt(p, 0)
	for tt := range pion {
		if math.Abs(real(cross[tt])-pion[tt]) > 1e-10*math.Abs(pion[tt]) {
			t.Fatalf("cross(g5,g5) != pion at t=%d: %v vs %v", tt, cross[tt], pion[tt])
		}
		if math.Abs(imag(cross[tt])) > 1e-10*math.Abs(pion[tt]) {
			t.Fatalf("imaginary part at t=%d", tt)
		}
	}
}

// crossMeson2pt returns the mixed-bilinear correlator
//
//	C(t) = sum_x Tr[ Gsnk S(x,0) Gsrc^dag gamma_5 S(x,0)^dag gamma_5 ],
//
// with independent source and sink spin structures; pcacMass reads the
// axial-pseudoscalar correlator C_{A4 P} from it.
func crossMeson2pt(p *prop.Propagator, t0 int, gSnk, gSrc linalg.SpinMatrix) []complex128 {
	g := p.G
	tExt := g.T()
	sign := func(idx int) float64 {
		if idx < 6 {
			return 1
		}
		return -1
	}
	out := make([]complex128, tExt)
	for ts := 0; ts < tExt; ts++ {
		slice := g.TimeSlice(ts)
		sum := linalg.ReduceComplex128(len(slice), 0, func(lo, hi int) complex128 {
			var acc complex128
			for k := lo; k < hi; k++ {
				m := p.At(slice[k])
				// M1 = Gsnk S, M2 = S Gsrc; C = sum s_i s_j M1 conj(M2).
				for i := 0; i < 12; i++ {
					si, ci := i/3, i%3
					for j := 0; j < 12; j++ {
						sj, cj := j/3, j%3
						var a, b complex128
						for s2 := 0; s2 < 4; s2++ {
							if gSnk[si][s2] != 0 {
								a += gSnk[si][s2] * m[s2*3+ci][j]
							}
							if gSrc[s2][sj] != 0 {
								b += m[i][s2*3+cj] * gSrc[s2][sj]
							}
						}
						acc += complex(sign(i)*sign(j), 0) * a *
							complex(real(b), -imag(b))
					}
				}
			}
			return acc
		})
		out[(ts-t0+tExt)%tExt] = sum
	}
	return out
}

// pcacMass returns the partially-conserved-axial-current quark mass
//
//	m_PCAC(t) = d_t C_{A4 P}(t) / (2 C_{PP}(t)),
//
// with the symmetric lattice time derivative. For domain-wall fermions it
// measures m + m_res: the Ward-identity check of the whole current
// algebra. Entries where the derivative is undefined are NaN.
func pcacMass(p *prop.Propagator, t0 int) []float64 {
	g5 := linalg.Gamma(4)
	a4 := linalg.Gamma(3).MulSM(g5) // gamma_t gamma_5
	cap4 := crossMeson2pt(p, t0, a4, g5)
	cpp := Pion2pt(p, t0)
	tExt := len(cpp)
	out := make([]float64, tExt)
	for t := range out {
		if t == 0 || t == tExt-1 || cpp[t] == 0 {
			out[t] = math.NaN()
			continue
		}
		deriv := real(cap4[t+1]-cap4[t-1]) / 2
		out[t] = deriv / (2 * cpp[t])
	}
	return out
}
