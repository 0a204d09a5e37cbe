// Package ensemble generates synthetic correlator ensembles with the
// statistical anatomy of the paper's production data: ground state plus
// excited-state contamination, and - crucially - the Parisi-Lepage
// signal-to-noise collapse, where the relative error of a nucleon
// correlator grows like exp[(M_N - 3/2 m_pi) t]. The real a09m310 MILC
// ensemble is not available, so Fig. 1's statistical comparison (the
// Feynman-Hellmann method versus the traditional fixed-sink method with
// an order of magnitude more samples) is reproduced on this calibrated
// generator, while the small-lattice pipeline in package prop/contract
// exercises the identical analysis code on real solves.
package ensemble

import (
	"fmt"
	"math"
	"math/rand"
)

// FHParams configures the synthetic Feynman-Hellmann ensemble.
type FHParams struct {
	T    int     // temporal extent of the correlators
	N    int     // number of gauge configurations
	Seed int64   // RNG seed
	GA   float64 // true axial coupling (plateau of g_eff)
	C0   float64 // FH ratio offset (scheme constant)
	MN   float64 // nucleon mass in lattice units
	Mpi  float64 // pion mass in lattice units
	DE   float64 // excited-state gap in lattice units
	A1   float64 // two-point excited-state amplitude
	K1   float64 // FH-ratio excited-state amplitude
	// Noise is the per-configuration relative fluctuation of the
	// correlator at t = 0; the Parisi-Lepage growth multiplies it.
	Noise float64
	// Rho is the AR(1) correlation of the noise across neighbouring
	// time slices (real correlators are strongly correlated in t).
	Rho float64
	// TradNoiseMult is the extra per-configuration noise of the
	// traditional sequential-source three-point ratio relative to the FH
	// ratio, which benefits from correlated-fluctuation cancellation
	// between C_FH and C_2 (they share the same gauge noise).
	TradNoiseMult float64
}

// A09M310 returns parameters calibrated to the paper's a09m310 ensemble
// (a = 0.09 fm, m_pi = 310 MeV): M_N a = 0.53, m_pi a = 0.142, gA = 1.271.
func A09M310(n int, seed int64) FHParams {
	return FHParams{
		T: 16, N: n, Seed: seed,
		GA: 1.271, C0: 0.35,
		MN: 0.53, Mpi: 0.142, DE: 0.45,
		A1: 0.6, K1: 0.55,
		Noise: 0.012, Rho: 0.8,
		TradNoiseMult: 2.0,
	}
}

// Validate checks the parameter ranges.
func (p FHParams) Validate() error {
	if p.T < 4 {
		return fmt.Errorf("ensemble: T = %d too small", p.T)
	}
	if p.N < 2 {
		return fmt.Errorf("ensemble: N = %d configs; need >= 2", p.N)
	}
	if p.MN <= 1.5*p.Mpi {
		return fmt.Errorf("ensemble: M_N = %g must exceed (3/2) m_pi = %g for the noise model", p.MN, 1.5*p.Mpi)
	}
	if p.Noise <= 0 || p.Rho < 0 || p.Rho >= 1 {
		return fmt.Errorf("ensemble: bad noise parameters")
	}
	return nil
}

// StoNExponent returns the Parisi-Lepage signal-to-noise decay rate
// M_N - (3/2) m_pi.
func (p FHParams) StoNExponent() float64 { return p.MN - 1.5*p.Mpi }

// C2Mean returns the noiseless two-point function at time t.
func (p FHParams) C2Mean(t float64) float64 {
	return math.Exp(-p.MN*t) * (1 + p.A1*math.Exp(-p.DE*t))
}

// RMean returns the noiseless FH ratio R(t) = C_FH(t)/C_2(t): linear rise
// gA*t plus the scheme constant and the decaying excited-state term.
func (p FHParams) RMean(t float64) float64 {
	return p.GA*t + p.C0 + p.K1*math.Exp(-p.DE*t)
}

// ar1 fills eta with a unit-variance AR(1) chain of correlation rho.
func ar1(rng *rand.Rand, eta []float64, rho float64) {
	drive := math.Sqrt(1 - rho*rho)
	x := rng.NormFloat64()
	eta[0] = x
	for i := 1; i < len(eta); i++ {
		x = rho*x + drive*rng.NormFloat64()
		eta[i] = x
	}
}

// GenerateFH returns per-configuration two-point and FH correlators,
// each [N][T]. The relative noise of C2 grows like exp(StoN * t); the FH
// correlator noise carries an extra factor (1 + t/2) reflecting the
// summed current insertion.
func GenerateFH(p FHParams) (c2, cfh [][]float64, err error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	c2 = make([][]float64, p.N)
	cfh = make([][]float64, p.N)
	eta := make([]float64, p.T)
	xi := make([]float64, p.T)
	ston := p.StoNExponent()
	for i := 0; i < p.N; i++ {
		ar1(rng, eta, p.Rho)
		ar1(rng, xi, p.Rho)
		a := make([]float64, p.T)
		b := make([]float64, p.T)
		for t := 0; t < p.T; t++ {
			tf := float64(t)
			mean2 := p.C2Mean(tf)
			sigma2 := p.Noise * math.Exp(ston*tf)
			a[t] = mean2 * (1 + sigma2*eta[t])
			sigmaR := p.Noise * (1 + tf/4) * math.Exp(ston*tf)
			b[t] = mean2 * (p.RMean(tf) + sigmaR*xi[t])
		}
		c2[i] = a
		cfh[i] = b
	}
	return c2, cfh, nil
}

// GenerateTraditional returns per-configuration fixed-sink ratio data
// R_i(tau; T) for each source-sink separation in tseps: the traditional
// three-point method, whose per-configuration noise is set by the *sink
// time* T (sigma ~ exp(StoN * T)), which is exactly why it cannot exploit
// early times and loses exponentially to the FH method.
func GenerateTraditional(p FHParams, tseps []int) (map[int][][]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make(map[int][][]float64, len(tseps))
	rng := rand.New(rand.NewSource(p.Seed + 1))
	ston := p.StoNExponent()
	for _, ts := range tseps {
		if ts < 2 || ts >= p.T {
			return nil, fmt.Errorf("ensemble: tsep %d outside (2, T)", ts)
		}
		data := make([][]float64, p.N)
		xi := make([]float64, ts+1)
		mult := p.TradNoiseMult
		if mult <= 0 {
			mult = 1
		}
		sigma := p.Noise * mult * math.Exp(ston*float64(ts))
		for i := 0; i < p.N; i++ {
			ar1(rng, xi, p.Rho)
			row := make([]float64, ts+1)
			for tau := 0; tau <= ts; tau++ {
				tf, tsf := float64(tau), float64(ts)
				mean := p.GA + p.K1*p.DE*(math.Exp(-p.DE*tf)+math.Exp(-p.DE*(tsf-tf)))
				row[tau] = mean + sigma*xi[tau]
			}
			data[i] = row
		}
		out[ts] = data
	}
	return out, nil
}
