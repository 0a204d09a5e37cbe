// Package contract implements the tensor contractions of the paper's
// workflow (Fig. 2): quark propagators are tied together into hadron
// correlation functions. These are the CPU-only tasks that mpi_jm
// co-schedules onto the same nodes as the GPU propagator solves, about 3%
// of the paper's execution time. In this tree the benchmark's traced
// fh-single campaign (2x2x4x8, Ls 4, two configurations) measured their
// share (contract.share) at 7.7% before the per-site work was hoisted and
// the timeslices put on idle lanes, and at 1.7% after (BENCH_40.json).
// Implemented here: the pion two-point function,
// the proton/neutron two-point function via the standard epsilon-tensor
// diquark contractions, and the Feynman-Hellmann axial three-point
// function from which the effective coupling g_eff(t) - the paper's
// Fig. 1 observable - is built.
package contract

import (
	"math"
	"sync"
	"sync/atomic"

	"femtoverse/internal/dirac"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/prop"
)

// epsilon holds the non-zero elements of the color Levi-Civita tensor as
// (a, b, c, sign) tuples.
var epsilon = [6]struct {
	a, b, c int
	sign    float64
}{
	{0, 1, 2, +1}, {1, 2, 0, +1}, {2, 0, 1, +1},
	{0, 2, 1, -1}, {2, 1, 0, -1}, {1, 0, 2, -1},
}

// Pion2pt returns the zero-momentum pion correlator
//
//	C(t) = sum_x Tr[S(x,0) S(x,0)^dag],
//
// using gamma_5 hermiticity to fold the backward propagator; it is
// manifestly positive, which the tests exploit.
func Pion2pt(p *prop.Propagator, t0 int) []float64 {
	g := p.G
	tExt := g.T()
	out := make([]float64, tExt)
	for ts := 0; ts < tExt; ts++ {
		slice := g.TimeSlice(ts)
		sum := linalg.ReduceFloat64(len(slice), func(lo, hi int) float64 {
			acc := 0.0
			for k := lo; k < hi; k++ {
				base := slice[k] * dirac.SpinorLen
				for j := 0; j < prop.NComp; j++ {
					col := p.Col[j]
					for i := 0; i < prop.NComp; i++ {
						v := col[base+i]
						acc += real(v)*real(v) + imag(v)*imag(v)
					}
				}
			}
			return acc
		})
		out[(ts-t0+tExt)%tExt] = sum
	}
	return out
}

// blocks is one site's 12x12 spin-colour propagator matrix S as its nine
// 4x4 spin blocks, by colour pair: b[c][cp][a][bb] = S[a*3+c][bb*3+cp].
type blocks [3][3]linalg.SpinMatrix

// load fills b with p's matrix at site, passing through m.
func (b *blocks) load(p *prop.Propagator, site int, m *[prop.NComp][prop.NComp]complex128) {
	p.At(m, site)
	for c := 0; c < 3; c++ {
		for cp := 0; cp < 3; cp++ {
			for a := 0; a < 4; a++ {
				for bb := 0; bb < 4; bb++ {
					b[c][cp][a][bb] = m[a*3+c][bb*3+cp]
				}
			}
		}
	}
}

// tilde sets b to the blocks of the diquark-conjugated propagator
// S~ = (C gamma_5) S^T (C gamma_5) of s, where the transpose acts in spin
// space only: C gamma_5 carries no colour, so each colour block (sink
// index, source index) keeps its indices and only its 4x4 spin matrix is
// transposed. Keeping the colour indices in place is what preserves gauge
// invariance of the epsilon-contracted correlator.
func (b *blocks) tilde(s *blocks, cg5 *linalg.SpinMatrix) {
	for c := 0; c < 3; c++ {
		for cp := 0; cp < 3; cp++ {
			var tb linalg.SpinMatrix
			for a := 0; a < 4; a++ {
				for bb := 0; bb < 4; bb++ {
					tb[a][bb] = s[c][cp][bb][a]
				}
			}
			b[c][cp] = cg5.MulSM(tb).MulSM(*cg5)
		}
	}
}

// projected holds what protonSite reads of the propagator in the c slot:
// the products P U_c of the parity projector with its nine blocks, and
// their traces.
type projected struct {
	pu blocks
	tr [3][3]complex128
}

// set fills q from the blocks of u.
func (q *projected) set(parity *linalg.SpinMatrix, u *blocks) {
	for c := 0; c < 3; c++ {
		for cp := 0; cp < 3; cp++ {
			q.pu[c][cp] = parity.MulSM(u[c][cp])
			q.tr[c][cp] = q.pu[c][cp].TraceSM()
		}
	}
}

// traceMul returns tr(a*b) as a.MulSM(b).TraceSM() computes it, from the
// diagonal of the product alone.
func traceMul(a, b *linalg.SpinMatrix) complex128 {
	var d [4]complex128
	for i := 0; i < 4; i++ {
		var s complex128
		for k := 0; k < 4; k++ {
			s += a[i][k] * b[k][i]
		}
		d[i] = s
	}
	return d[0] + d[1] + d[2] + d[3]
}

// protonSite evaluates the two Wick contractions of the proton two-point
// function at one site with explicit propagators in the three quark slots
// (u in the a and c slots, d in the b slot):
//
//	sum_{eps eps'} [ tr_s(P U_c^{cc'}) tr_s(U_a^{aa'} D~^{bb'})
//	               + tr_s(P U_c^{cc'} D~^{bb'} U_a^{aa'}) ]
//
// with P the positive-parity projector, which uC carries. Splitting the
// slots is what makes the Feynman-Hellmann insertion (replace one slot
// with the FH propagator) a three-line operation. Each product and trace
// is formed as MulSM and TraceSM form it, so the site's value is the
// composition of those calls bit for bit.
func protonSite(uA *blocks, uC *projected, dTilde *blocks) complex128 {
	var total complex128
	for _, e1 := range epsilon {
		for _, e2 := range epsilon {
			sgn := complex(e1.sign*e2.sign, 0)
			ua, dt := &uA[e1.a][e2.a], &dTilde[e1.b][e2.b]
			t1 := uC.tr[e1.c][e2.c] * traceMul(ua, dt)
			x := uC.pu[e1.c][e2.c].MulSM(*dt)
			t2 := traceMul(&x, ua)
			total += sgn * (t1 + t2)
		}
	}
	// The overall minus is the Grassmann-reordering sign of the Wick
	// contraction; with it the positive-parity forward proton is positive.
	return -total
}

// scratch is one lane's per-site workspace: a site matrix, the blocks of
// up to four propagators, and their conjugated and projected forms.
type scratch struct {
	m            [prop.NComp][prop.NComp]complex128
	u, d, fu, fd blocks
	dt, fdt      blocks
	pu, pfu      projected
}

// timeslices returns the correlator whose entry (ts-t0) mod T sums
// site(s, x, acc) over the sites x of timeslice ts, in site order within
// linalg.ReduceComplex128's chunks: site adds the site's terms to acc and
// returns it. Each timeslice is summed whole by one goroutine, so the
// value is the serial loop's at any lane count. The caller counts as a
// lane, and before each timeslice it takes it puts a helper lane, with a
// scratch of its own, on every core linalg.TryEnterLane finds idle, up to
// one per timeslice not yet taken - the rule of the propagator batch.
func timeslices(g *lattice.Geometry, t0 int, site func(s *scratch, x int, acc complex128) complex128) []complex128 {
	tExt := g.T()
	out := make([]complex128, tExt)
	var next atomic.Int64
	take := func(s *scratch) bool {
		ts := int(next.Add(1)) - 1
		if ts >= tExt {
			return false
		}
		lo, hi := g.TimeSliceRange(ts)
		out[(ts-t0+tExt)%tExt] = linalg.ReduceComplex128(hi-lo, func(a, b int) complex128 {
			var acc complex128
			for x := lo + a; x < lo+b; x++ {
				acc = site(s, x, acc)
			}
			return acc
		})
		return true
	}
	linalg.EnterLane()
	defer linalg.LeaveLane()
	var wg sync.WaitGroup
	helpers, own := 0, new(scratch)
	for {
		for helpers < tExt-1-int(next.Load()) && linalg.TryEnterLane() {
			helpers++
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer linalg.LeaveLane()
				s := new(scratch)
				for take(s) {
				}
			}()
		}
		if !take(own) {
			break
		}
	}
	wg.Wait()
	return out
}

// Proton2pt returns the zero-momentum positive-parity proton correlator
// from (possibly distinct) up and down propagators, source time t0.
func Proton2pt(u, d *prop.Propagator, t0 int) []complex128 {
	parity, cg5 := linalg.ParityProjPlus(), linalg.CGamma5()
	return timeslices(u.G, t0, func(s *scratch, x int, acc complex128) complex128 {
		s.u.load(u, x, &s.m)
		s.d.load(d, x, &s.m)
		s.dt.tilde(&s.d, &cg5)
		s.pu.set(&parity, &s.u)
		acc += protonSite(&s.u, &s.pu, &s.dt)
		return acc
	})
}

// ProtonFH3pt returns the Feynman-Hellmann three-point correlator of the
// isovector axial current: the derivative of the two-point function with
// respect to the FH coupling, which replaces each quark propagator in
// turn with its FH sequential propagator - both u slots with weight +1
// and the d slot with weight -1 (isovector u - d combination whose
// forward matrix element is gA).
func ProtonFH3pt(u, d, fhU, fhD *prop.Propagator, t0 int) []complex128 {
	parity, cg5 := linalg.ParityProjPlus(), linalg.CGamma5()
	return timeslices(u.G, t0, func(s *scratch, x int, acc complex128) complex128 {
		s.u.load(u, x, &s.m)
		s.d.load(d, x, &s.m)
		s.fu.load(fhU, x, &s.m)
		s.fd.load(fhD, x, &s.m)
		s.dt.tilde(&s.d, &cg5)
		s.fdt.tilde(&s.fd, &cg5)
		s.pu.set(&parity, &s.u)
		s.pfu.set(&parity, &s.fu)
		// u insertions: slot a then slot c.
		acc += protonSite(&s.fu, &s.pu, &s.dt)
		acc += protonSite(&s.u, &s.pfu, &s.dt)
		// d insertion, weight -1 (isovector).
		acc -= protonSite(&s.u, &s.pu, &s.fdt)
		return acc
	})
}

// Real extracts the real parts of a complex correlator (the imaginary
// part of a zero-momentum parity-projected correlator averages to zero).
func Real(c []complex128) []float64 {
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = real(v)
	}
	return out
}

// EffectiveMass returns m_eff(t) = log(C(t)/C(t+1)) for t in
// [0, len(C)-2]; entries where the ratio is non-positive are NaN.
func EffectiveMass(c []float64) []float64 {
	out := make([]float64, len(c)-1)
	for t := 0; t+1 < len(c); t++ {
		r := c[t] / c[t+1]
		if r > 0 {
			out[t] = math.Log(r)
		} else {
			out[t] = math.NaN()
		}
	}
	return out
}

// EffectiveGA builds the paper's Fig. 1 observable from the FH ratio
// R(t) = C_FH(t) / C_2pt(t):
//
//	g_eff(t) = R(t+1) - R(t),
//
// which plateaus at gA as excited-state contamination dies off.
func EffectiveGA(c3, c2 []float64) []float64 {
	n := len(c3) - 1
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		out[t] = c3[t+1]/c2[t+1] - c3[t]/c2[t]
	}
	return out
}
