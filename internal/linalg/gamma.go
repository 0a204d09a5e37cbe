package linalg

// Dirac gamma matrices in the DeGrand-Rossi basis used by Chroma/QUDA.
// Every gamma matrix in this basis has exactly one non-zero entry per row,
// so its action is a spin permutation plus a phase:
//
//	(gamma_mu psi)_s = GammaPhase[mu][s] * psi_{GammaPerm[mu][s]}
//
// Directions are indexed 0..3 = x,y,z,t and index 4 holds gamma_5 =
// gamma_x gamma_y gamma_z gamma_t = diag(+1,+1,-1,-1). The identities
// {gamma_mu, gamma_nu} = 2 delta_mu_nu and gamma_5^2 = 1 are enforced by
// property tests.
var (
	// GammaPerm[mu][s] is the source spin index feeding output spin s.
	GammaPerm = [5][4]int{
		{3, 2, 1, 0}, // gamma_x
		{3, 2, 1, 0}, // gamma_y
		{2, 3, 0, 1}, // gamma_z
		{2, 3, 0, 1}, // gamma_t
		{0, 1, 2, 3}, // gamma_5
	}
	// GammaPhase[mu][s] is the phase multiplying the permuted component.
	GammaPhase = [5][4]complex128{
		{1i, 1i, -1i, -1i}, // gamma_x
		{-1, 1, 1, -1},     // gamma_y
		{1i, -1i, -1i, 1i}, // gamma_z
		{1, 1, 1, 1},       // gamma_t
		{1, 1, -1, -1},     // gamma_5
	}
)

// SpinMatrix is a dense 4x4 complex matrix acting on spin space; the
// contraction code builds diquark and parity projectors out of these.
type SpinMatrix [4][4]complex128

// SpinIdentity returns the 4x4 identity.
func SpinIdentity() SpinMatrix {
	var m SpinMatrix
	for i := 0; i < 4; i++ {
		m[i][i] = 1
	}
	return m
}

// Gamma returns gamma_mu (mu = 0..3 for x,y,z,t; mu = 4 for gamma_5) as a
// dense spin matrix.
func Gamma(mu int) SpinMatrix {
	var m SpinMatrix
	for s := 0; s < 4; s++ {
		m[s][GammaPerm[mu][s]] = GammaPhase[mu][s]
	}
	return m
}

// MulSM returns a*b.
func (a SpinMatrix) MulSM(b SpinMatrix) SpinMatrix {
	var c SpinMatrix
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var s complex128
			for k := 0; k < 4; k++ {
				s += a[i][k] * b[k][j]
			}
			c[i][j] = s
		}
	}
	return c
}

// AddSM returns a+b.
func (a SpinMatrix) AddSM(b SpinMatrix) SpinMatrix {
	var c SpinMatrix
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			c[i][j] = a[i][j] + b[i][j]
		}
	}
	return c
}

// ScaleSM returns s*a.
func (a SpinMatrix) ScaleSM(s complex128) SpinMatrix {
	var c SpinMatrix
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			c[i][j] = s * a[i][j]
		}
	}
	return c
}

// AdjSM returns a^dagger.
func (a SpinMatrix) AdjSM() SpinMatrix {
	var c SpinMatrix
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			x := a[j][i]
			c[i][j] = complex(real(x), -imag(x))
		}
	}
	return c
}

// TraceSM returns tr(a).
func (a SpinMatrix) TraceSM() complex128 {
	return a[0][0] + a[1][1] + a[2][2] + a[3][3]
}

// ChargeConj returns the charge-conjugation matrix C = gamma_t gamma_y in
// the DeGrand-Rossi basis, used to form the (C gamma_5) diquark of the
// nucleon interpolating operator.
func ChargeConj() SpinMatrix {
	return Gamma(3).MulSM(Gamma(1))
}

// CGamma5 returns C gamma_5, the diquark spin structure of the nucleon.
func CGamma5() SpinMatrix {
	return ChargeConj().MulSM(Gamma(4))
}

// ParityProjPlus returns (1 + gamma_t)/2, the positive-parity projector
// applied at the nucleon sink.
func ParityProjPlus() SpinMatrix {
	return SpinIdentity().AddSM(Gamma(3)).ScaleSM(0.5)
}

// AxialGamma returns gamma_z gamma_5, the spin structure of the axial
// current A_3 whose nucleon matrix element is gA.
func AxialGamma() SpinMatrix {
	return Gamma(2).MulSM(Gamma(4))
}

// TensorGamma returns sigma_{xy} = (i/2)[gamma_x, gamma_y] = i gamma_x
// gamma_y (for x != y the commutator collapses), the spin structure of
// the tensor charge gT measured alongside gA in the production program.
func TensorGamma() SpinMatrix {
	return Gamma(0).MulSM(Gamma(1)).ScaleSM(1i)
}
