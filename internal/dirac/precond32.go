package dirac

import (
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
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

// MobiusEO32 is MobiusEO in single precision, the compute stage of the
// paper's "double-half" mixed-precision solver: the gauge field and all
// spinor arithmetic are float32, while the solver layered on top keeps
// its reductions and reliable updates in double precision and can
// additionally round the streamed operands through the 16-bit fixed-point
// storage format. It is the float32 instance of the kernel MobiusEO is the
// float64 instance of: the same source, on a demoted operator.
type MobiusEO32 struct {
	P *MobiusEO // parent: the geometry
	U *GaugeC64

	// The kernel: P's operator demoted to float32 lanes over U, shared by
	// every View, and this applier's own scratch.
	schur[float32]
}

// NewMobiusEO32 demotes a preconditioned operator to single precision.
func NewMobiusEO32(p *MobiusEO) *MobiusEO32 {
	demote := func(v []float64) []float32 {
		out := make([]float32, len(v))
		for i, x := range v {
			out[i] = float32(x)
		}
		return out
	}
	q := &MobiusEO32{P: p, U: DemoteGauge(p.M.W.U)}
	q.schurOp = schurOp[float32]{
		ls: p.ls, halfVol: p.halfVol, hops: p.hops,
		a: float32(p.a), c: float32(p.c), b5: float32(p.b5), c5: float32(p.c5), m: float32(p.m),
		minvP: demote(p.minvP), minvM: demote(p.minvM),
	}
	for mu := range q.u {
		q.u[mu] = links32(q.U.U[mu])
	}
	q.setLayout()
	q.own()
	return q
}

// View is MobiusEO.View in single precision: the demoted gauge field and
// the float32 constants by reference, scratch of its own,
// one pair-sized set that serves single and pair applications alike. P
// stays the operator q was demoted from.
func (q *MobiusEO32) View() *MobiusEO32 {
	v := &MobiusEO32{P: q.P, U: q.U}
	v.schurOp = q.schurOp
	v.own()
	return v
}

// Size returns the half-field component count.
func (q *MobiusEO32) Size() int { return q.P.HalfSize() }

func (q *MobiusEO32) run(st schurStage, dst, src []complex64) {
	q.schur.run(st, lanes32(dst), lanes32(src))
}

// Apply computes dst = Dhat src in single precision.
func (q *MobiusEO32) Apply(dst, src []complex64) {
	if len(dst) != q.Size() || len(src) != q.Size() {
		panic("dirac: MobiusEO32.Apply size mismatch")
	}
	q.run(stageB, nil, src)
	q.run(stageInner, nil, nil)
	q.run(stageOuter, dst, src)
}

// ApplyDagger computes dst = Dhat^dagger src in single precision.
func (q *MobiusEO32) ApplyDagger(dst, src []complex64) {
	if len(dst) != q.Size() || len(src) != q.Size() {
		panic("dirac: MobiusEO32.ApplyDagger size mismatch")
	}
	q.run(stageLoad, nil, src)
	q.run(stageInnerDag, nil, nil)
	q.run(stageOuterDag, dst, src)
}

// ApplyNormal is MobiusEO.ApplyNormal in single precision, two systems to
// a pass through the pair bodies where the build has them (linalg.HasAVX).
func (q *MobiusEO32) ApplyNormal(dst, src [][]complex64) {
	applyNormal(&q.schur, dst, src, lanes32)
}
