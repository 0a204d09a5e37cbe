package dirac

import (
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// SU3C64 is a single-precision SU(3) link, the storage type of the inner
// mixed-precision solver stage.
type SU3C64 [3][3]complex64

// GaugeC64 is a single-precision copy of a gauge field.
type GaugeC64 struct {
	G *lattice.Geometry
	U [lattice.NDim][]SU3C64
}

// DemoteGauge converts a double-precision gauge field to single precision
// once; the inner solver reuses the copy across all its iterations.
func DemoteGauge(f *gauge.Field) *GaugeC64 {
	d := &GaugeC64{G: f.G}
	for mu := 0; mu < lattice.NDim; mu++ {
		d.U[mu] = make([]SU3C64, len(f.U[mu]))
		for s, m := range f.U[mu] {
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					d.U[mu][s][i][j] = complex(float32(real(m[i][j])), float32(imag(m[i][j])))
				}
			}
		}
	}
	return d
}

// Wilson32 is the single-precision Wilson operator used inside the
// mixed-precision solver.
type Wilson32 struct {
	G       *lattice.Geometry
	U       *GaugeC64
	Mass    float32
	Workers int
}

// NewWilson32 builds the single-precision mirror of a Wilson operator.
func NewWilson32(w *Wilson) *Wilson32 {
	return &Wilson32{G: w.G, U: DemoteGauge(w.U), Mass: float32(w.Mass), Workers: w.Workers}
}

// Size returns the number of complex components in a compatible field.
func (w *Wilson32) Size() int { return w.G.Vol * SpinorLen }

// Apply computes dst = D src in single precision.
func (w *Wilson32) Apply(dst, src []complex64) {
	if len(dst) != w.Size() || len(src) != w.Size() {
		panic("dirac: Wilson32.Apply size mismatch")
	}
	diag := 4 + w.Mass
	g := w.G
	linalg.For(g.Vol, w.Workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			out := dst[s*SpinorLen : (s+1)*SpinorLen]
			in := src[s*SpinorLen : (s+1)*SpinorLen]
			for i := 0; i < SpinorLen; i++ {
				out[i] = complex(diag*real(in[i]), diag*imag(in[i]))
			}
			for mu := 0; mu < lattice.NDim; mu++ {
				fw := g.Fwd(s, mu)
				hopAccum32(out, src[fw*SpinorLen:(fw+1)*SpinorLen], &w.U.U[mu][s], mu, -1, false)
				bw := g.Bwd(s, mu)
				hopAccum32(out, src[bw*SpinorLen:(bw+1)*SpinorLen], &w.U.U[mu][bw], mu, +1, true)
			}
		}
	})
}

// hopAccum32 is the single-precision hopping kernel. The arithmetic is
// written out in explicit float32 real/imaginary components because the
// Go compiler lowers complex64 multiplication through complex128, which
// costs more than 2x on this hot path.
func hopAccum32(out, in []complex64, u *SU3C64, mu, projSign int, adjoint bool) {
	p0 := linalg.GammaPerm[mu][0]
	p1 := linalg.GammaPerm[mu][1]
	ph0c := linalg.GammaPhase[mu][0]
	ph1c := linalg.GammaPhase[mu][1]
	s := float32(projSign)
	ph0r, ph0i := s*float32(real(ph0c)), s*float32(imag(ph0c))
	ph1r, ph1i := s*float32(real(ph1c)), s*float32(imag(ph1c))

	// Projected half-spinors h0, h1 as separate re/im arrays.
	var h0r, h0i, h1r, h1i [3]float32
	for c := 0; c < 3; c++ {
		a := in[p0*3+c]
		ar, ai := real(a), imag(a)
		h0r[c] = real(in[c]) + ph0r*ar - ph0i*ai
		h0i[c] = imag(in[c]) + ph0r*ai + ph0i*ar
		b := in[p1*3+c]
		br, bi := real(b), imag(b)
		h1r[c] = real(in[3+c]) + ph1r*br - ph1i*bi
		h1i[c] = imag(in[3+c]) + ph1r*bi + ph1i*br
	}
	var u0r, u0i, u1r, u1i [3]float32
	if adjoint {
		for i := 0; i < 3; i++ {
			var s0r, s0i, s1r, s1i float32
			for j := 0; j < 3; j++ {
				mr, mi := real(u[j][i]), -imag(u[j][i])
				s0r += mr*h0r[j] - mi*h0i[j]
				s0i += mr*h0i[j] + mi*h0r[j]
				s1r += mr*h1r[j] - mi*h1i[j]
				s1i += mr*h1i[j] + mi*h1r[j]
			}
			u0r[i], u0i[i] = s0r, s0i
			u1r[i], u1i[i] = s1r, s1i
		}
	} else {
		for i := 0; i < 3; i++ {
			var s0r, s0i, s1r, s1i float32
			for j := 0; j < 3; j++ {
				mr, mi := real(u[i][j]), imag(u[i][j])
				s0r += mr*h0r[j] - mi*h0i[j]
				s0i += mr*h0i[j] + mi*h0r[j]
				s1r += mr*h1r[j] - mi*h1i[j]
				s1i += mr*h1i[j] + mi*h1r[j]
			}
			u0r[i], u0i[i] = s0r, s0i
			u1r[i], u1i[i] = s1r, s1i
		}
	}
	// Reconstruction phases r = projSign * conj(ph).
	r0r, r0i := ph0r, -ph0i
	r1r, r1i := ph1r, -ph1i
	for c := 0; c < 3; c++ {
		out[c] -= complex(0.5*u0r[c], 0.5*u0i[c])
		out[3+c] -= complex(0.5*u1r[c], 0.5*u1i[c])
		out[p0*3+c] -= complex(0.5*(r0r*u0r[c]-r0i*u0i[c]), 0.5*(r0r*u0i[c]+r0i*u0r[c]))
		out[p1*3+c] -= complex(0.5*(r1r*u1r[c]-r1i*u1i[c]), 0.5*(r1r*u1i[c]+r1i*u1r[c]))
	}
}
