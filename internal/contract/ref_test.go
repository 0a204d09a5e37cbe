package contract

import (
	"femtoverse/internal/linalg"
	"femtoverse/internal/prop"
)

// This file keeps the proton contractions as they were before the per-site
// work was hoisted and the timeslices spread over lanes: each epsilon pair
// extracts its own three spin blocks, builds P U_c twice and takes full
// 4x4 products to trace them, the conjugated propagator is built on the
// heap per site, and the timeslices run one after another. The tests hold
// Proton2pt and ProtonFH3pt to it bit for bit and the paired benchmark
// times them against it.

// siteMatrix returns p's 12x12 spin-colour matrix at site on the heap, as
// Propagator.At once did.
func siteMatrix(p *prop.Propagator, site int) *[prop.NComp][prop.NComp]complex128 {
	var m [prop.NComp][prop.NComp]complex128
	p.At(&m, site)
	return &m
}

func spinBlockRef(m *[12][12]complex128, c, cp int) linalg.SpinMatrix {
	var s linalg.SpinMatrix
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			s[a][b] = m[a*3+c][b*3+cp]
		}
	}
	return s
}

func sTildeRef(m *[12][12]complex128) *[12][12]complex128 {
	cg5 := linalg.CGamma5()
	var out [12][12]complex128
	for c := 0; c < 3; c++ {
		for cp := 0; cp < 3; cp++ {
			var tb linalg.SpinMatrix
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					tb[a][b] = m[b*3+c][a*3+cp]
				}
			}
			blk := cg5.MulSM(tb).MulSM(cg5)
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					out[a*3+c][b*3+cp] = blk[a][b]
				}
			}
		}
	}
	return &out
}

func protonSiteRef(uA, uC, dTilde *[12][12]complex128, parity linalg.SpinMatrix) complex128 {
	var total complex128
	for _, e1 := range epsilon {
		for _, e2 := range epsilon {
			sgn := complex(e1.sign*e2.sign, 0)
			bUa := spinBlockRef(uA, e1.a, e2.a)
			bUc := spinBlockRef(uC, e1.c, e2.c)
			bDt := spinBlockRef(dTilde, e1.b, e2.b)

			t1 := parity.MulSM(bUc).TraceSM() * bUa.MulSM(bDt).TraceSM()
			t2 := parity.MulSM(bUc).MulSM(bDt).MulSM(bUa).TraceSM()
			total += sgn * (t1 + t2)
		}
	}
	return -total
}

func proton2ptRef(u, d *prop.Propagator, t0 int) []complex128 {
	g := u.G
	tExt := g.T()
	parity := linalg.ParityProjPlus()
	out := make([]complex128, tExt)
	for ts := 0; ts < tExt; ts++ {
		slice := g.TimeSlice(ts)
		sum := linalg.ReduceComplex128(len(slice), func(lo, hi int) complex128 {
			var acc complex128
			for k := lo; k < hi; k++ {
				mu := siteMatrix(u, slice[k])
				md := siteMatrix(d, slice[k])
				acc += protonSiteRef(mu, mu, sTildeRef(md), parity)
			}
			return acc
		})
		out[(ts-t0+tExt)%tExt] = sum
	}
	return out
}

func protonFH3ptRef(u, d, fhU, fhD *prop.Propagator, t0 int) []complex128 {
	g := u.G
	tExt := g.T()
	parity := linalg.ParityProjPlus()
	out := make([]complex128, tExt)
	for ts := 0; ts < tExt; ts++ {
		slice := g.TimeSlice(ts)
		sum := linalg.ReduceComplex128(len(slice), func(lo, hi int) complex128 {
			var acc complex128
			for k := lo; k < hi; k++ {
				mu := siteMatrix(u, slice[k])
				md := siteMatrix(d, slice[k])
				mfU := siteMatrix(fhU, slice[k])
				mfD := siteMatrix(fhD, slice[k])
				dt := sTildeRef(md)
				acc += protonSiteRef(mfU, mu, dt, parity)
				acc += protonSiteRef(mu, mfU, dt, parity)
				acc -= protonSiteRef(mu, mu, sTildeRef(mfD), parity)
			}
			return acc
		})
		out[(ts-t0+tExt)%tExt] = sum
	}
	return out
}
