package linalg

import (
	"math/cmplx"
	"testing"
)

// spinDist returns the squared Frobenius distance between a and b.
func spinDist(a, b SpinMatrix) float64 {
	s := 0.0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			d := a[i][j] - b[i][j]
			s += real(d)*real(d) + imag(d)*imag(d)
		}
	}
	return s
}

// transpose returns a^T.
func transpose(a SpinMatrix) SpinMatrix {
	var c SpinMatrix
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			c[i][j] = a[j][i]
		}
	}
	return c
}

func TestCliffordAlgebra(t *testing.T) {
	// {gamma_mu, gamma_nu} = 2 delta_mu_nu in the Euclidean DeGrand-Rossi
	// basis, for all mu, nu in 0..3.
	for mu := 0; mu < 4; mu++ {
		for nu := 0; nu < 4; nu++ {
			g1, g2 := Gamma(mu), Gamma(nu)
			anti := g1.MulSM(g2).AddSM(g2.MulSM(g1))
			var want SpinMatrix
			if mu == nu {
				want = SpinIdentity().ScaleSM(2)
			}
			if spinDist(anti, want) > 1e-28 {
				t.Fatalf("{gamma_%d, gamma_%d} wrong: %v", mu, nu, anti)
			}
		}
	}
}

func TestGamma5IsProductOfGammas(t *testing.T) {
	prod := Gamma(0).MulSM(Gamma(1)).MulSM(Gamma(2)).MulSM(Gamma(3))
	if spinDist(prod, Gamma(4)) > 1e-28 {
		t.Fatalf("gamma_5 != gamma_x gamma_y gamma_z gamma_t: %v", prod)
	}
	// gamma_5 is diagonal (+1,+1,-1,-1) in this basis.
	want := SpinMatrix{}
	want[0][0], want[1][1], want[2][2], want[3][3] = 1, 1, -1, -1
	if spinDist(Gamma(4), want) > 1e-28 {
		t.Fatalf("gamma_5 not diag(1,1,-1,-1): %v", Gamma(4))
	}
}

func TestGammasAreHermitianAndSquareToOne(t *testing.T) {
	for mu := 0; mu <= 4; mu++ {
		g := Gamma(mu)
		if spinDist(g, g.AdjSM()) > 1e-28 {
			t.Fatalf("gamma_%d not Hermitian", mu)
		}
		if spinDist(g.MulSM(g), SpinIdentity()) > 1e-28 {
			t.Fatalf("gamma_%d^2 != 1", mu)
		}
	}
}

func TestGamma5AnticommutesWithGammas(t *testing.T) {
	g5 := Gamma(4)
	for mu := 0; mu < 4; mu++ {
		g := Gamma(mu)
		anti := g5.MulSM(g).AddSM(g.MulSM(g5))
		if spinDist(anti, SpinMatrix{}) > 1e-28 {
			t.Fatalf("gamma_5 does not anticommute with gamma_%d", mu)
		}
	}
}

func TestPermutationTablesMatchDenseMatrices(t *testing.T) {
	// The fast permutation+phase action must agree with the dense matrix.
	for mu := 0; mu <= 4; mu++ {
		g := Gamma(mu)
		for s := 0; s < 4; s++ {
			for p := 0; p < 4; p++ {
				want := complex128(0)
				if p == GammaPerm[mu][s] {
					want = GammaPhase[mu][s]
				}
				if cmplx.Abs(g[s][p]-want) > 1e-30 {
					t.Fatalf("gamma_%d[%d][%d] = %v, table says %v", mu, s, p, g[s][p], want)
				}
			}
		}
	}
}

func TestChargeConjugationProperties(t *testing.T) {
	c := ChargeConj()
	// C gamma_mu C^-1 = -gamma_mu^T for Euclidean gammas.
	cInv := c.AdjSM() // C is unitary
	if spinDist(c.MulSM(cInv), SpinIdentity()) > 1e-28 {
		t.Fatal("C is not unitary")
	}
	for mu := 0; mu < 4; mu++ {
		lhs := c.MulSM(Gamma(mu)).MulSM(cInv)
		rhs := transpose(Gamma(mu)).ScaleSM(-1)
		if spinDist(lhs, rhs) > 1e-28 {
			t.Fatalf("C gamma_%d C^-1 != -gamma_%d^T", mu, mu)
		}
	}
}

func TestParityProjectorIsIdempotent(t *testing.T) {
	p := ParityProjPlus()
	if spinDist(p.MulSM(p), p) > 1e-28 {
		t.Fatal("P+ not idempotent")
	}
	if tr := p.TraceSM(); cmplx.Abs(tr-2) > 1e-14 {
		t.Fatalf("tr P+ = %v, want 2", tr)
	}
}

func TestAxialGammaAntiHermitianStructure(t *testing.T) {
	// gamma_z gamma_5 squares to -1... actually (g3 g5)^2 = g3 g5 g3 g5 =
	// -g3 g3 g5 g5 = -1, since they anticommute.
	a := AxialGamma()
	if spinDist(a.MulSM(a), SpinIdentity().ScaleSM(-1)) > 1e-28 {
		t.Fatal("(gamma_z gamma_5)^2 != -1")
	}
}

func TestSpinMatrixAlgebra(t *testing.T) {
	a := Gamma(0)
	b := Gamma(1)
	// (a b)^T = b^T a^T
	if spinDist(transpose(a.MulSM(b)), transpose(b).MulSM(transpose(a))) > 1e-28 {
		t.Fatal("transpose of product wrong")
	}
	// (a b)^dag = b^dag a^dag
	if spinDist(a.MulSM(b).AdjSM(), b.AdjSM().MulSM(a.AdjSM())) > 1e-28 {
		t.Fatal("adjoint of product wrong")
	}
	// tr(ab) = tr(ba)
	if cmplx.Abs(a.MulSM(b).TraceSM()-b.MulSM(a).TraceSM()) > 1e-14 {
		t.Fatal("trace not cyclic")
	}
}

func TestTensorGammaHermitianSquaresToOne(t *testing.T) {
	s := TensorGamma()
	if spinDist(s, s.AdjSM()) > 1e-28 {
		t.Fatal("sigma_xy not Hermitian")
	}
	if spinDist(s.MulSM(s), SpinIdentity()) > 1e-28 {
		t.Fatal("sigma_xy^2 != 1")
	}
	// It commutes with gamma_5 (even product of gammas).
	g5 := Gamma(4)
	if spinDist(s.MulSM(g5), g5.MulSM(s)) > 1e-28 {
		t.Fatal("sigma_xy does not commute with gamma_5")
	}
}
