// Package dirac implements the lattice Dirac operators at the heart of the
// paper's workload: the 4-D Wilson operator (the stencil kernel), the 5-D
// Möbius domain-wall operator built on top of it, and the red-black
// (even-odd) Schur-preconditioned operator that the production solver
// actually inverts. The Schur operator is one generic kernel (schur.go)
// instantiated at float64 (MobiusEO) and float32 (MobiusEO32); the
// single-precision instance is the compute stage of the mixed-precision
// "double-half" solver, whose storage-precision rounding is modelled with
// the 16-bit fixed-point codec from package linalg.
//
// Field layout: a 4-D spinor field is a flat []complex128 (or []complex64)
// of length Vol*12 with index site*12 + spin*3 + color. A 5-D domain-wall
// field stacks Ls such slices, fifth coordinate slowest:
// index = (s*Vol + site)*12 + spin*3 + color.
//
// Conventions (DeGrand-Rossi gamma basis, see package linalg):
//
//	Dw = (4 - M5) - (1/2) sum_mu [(1-gamma_mu) U_mu(x) T+_mu
//	                            + (1+gamma_mu) U_mu(x-mu)^dag T-_mu]
//	D(m) psi_s = Dw(b5 psi_s + c5 chi_s) + psi_s - chi_s
//	chi_s     = P- psi_{s+1} + P+ psi_{s-1}, with -m wrap at the walls
//
// where P+- = (1 +- gamma_5)/2. Setting b5 = 1, c5 = 0 recovers the Shamir
// action; the paper's runs use Mobius coefficients with b5 - c5 = 1.
package dirac
