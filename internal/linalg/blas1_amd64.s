#include "textflag.h"

// The complex64 BLAS-1 passes of the sloppy CG iteration in VEX-encoded
// AVX. Each body does to every element what the Go loop of blas1.go does,
// operation for operation and operand for operand:
//
//   - a complex product a*x is VMULPS of the broadcast real part by x,
//     VMULPS of the broadcast imaginary part by x with re and im swapped,
//     and VADDSUBPS, whose even lanes subtract and odd lanes add:
//     [ar*xr - ai*xi, ar*xi + ai*xr], the Go expansion's two roundings per
//     lane. The double-precision product of DotC64 is the same shape in
//     VMULPD/VADDSUBPD, as gc expands complex128 multiplication. The sum
//     of an update, y + a*x or x + a*y, takes the product as its first
//     operand, the order of gc's default build. Of two NaNs x86 returns
//     the first, so only a NaN's payload can hang on that order, and gc
//     does not fix it either: a -race build orders some adds the other way.
//   - A reduction adds its per-element terms into one [re, im] (or one
//     float64) register chain in element order, from +0, exactly as the Go
//     loop's running sum does; only the independent products are computed
//     several elements at a time. sumChunks calls a body once per
//     ReduceChunk slab, so the slab order stays the Go side's.
//
// No body fuses a multiply with an add, and each issues VZEROUPPER before
// RET.

DATA negf64<>+0(SB)/8, $0x8000000000000000
DATA negf64<>+8(SB)/8, $0x8000000000000000
DATA negf64<>+16(SB)/8, $0x8000000000000000
DATA negf64<>+24(SB)/8, $0x8000000000000000
GLOBL negf64<>(SB), RODATA|NOPTR, $32

// CMULPS sets t to the complex64 products of (ar, ai), broadcast in ar and
// ai, by the elements in x; s is scratch.
#define CMULPS(ar, ai, x, t, s) \
	VMULPS x, ar, t; VPERMILPS $0xb1, x, s; VMULPS s, ai, s; VADDSUBPS s, t, t

// SQ2 sets d to the norms re*re + im*im of the two float64 elements in Y
// e0 (lanes 0, 2 of d) and e1 (lanes 1, 3), squaring both in place.
#define SQ2(e0, e1, d) \
	VMULPD e0, e0, e0; VMULPD e1, e1, e1; VHADDPD e1, e0, d

// ADD4 adds the four norms SQ2 left in register d (yd, xd its Y and X
// names) - elements 0 and 2 in the low lane, 1 and 3 in the high lane -
// into the X acc chain in element order; s is scratch.
#define ADD4(yd, xd, acc, s) \
	VADDSD xd, acc, acc; VEXTRACTF128 $1, yd, s; VADDSD s, acc, acc; \
	VPERMILPD $1, xd, xd; VADDSD xd, acc, acc; VPERMILPD $1, s, s; VADDSD s, acc, acc

// func axpyC64AVX(a complex64, x, y []complex64)
//
// y[i] += a*x[i], four elements to a YMM register, the last len%4 one at
// a time in the low half of an XMM register.
TEXT ·axpyC64AVX(SB), NOSPLIT, $0-56
	VBROADCASTSS a_real+0(FP), Y0
	VBROADCASTSS a_imag+4(FP), Y1
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI
	CMPQ CX, $4
	JB   axpytail

axpyloop:
	VMOVUPS (SI), Y2
	CMULPS(Y0, Y1, Y2, Y3, Y4)
	VADDPS  (DI), Y3, Y4
	VMOVUPS Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     axpyloop

axpytail:
	TESTQ CX, CX
	JZ    axpydone

axpyone:
	VMOVSD (SI), X2
	CMULPS(X0, X1, X2, X3, X4)
	VMOVSD (DI), X4
	VADDPS X4, X3, X4
	VMOVSD X4, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    axpyone

axpydone:
	VZEROUPPER
	RET

// func xpayC64AVX(x []complex64, a complex64, y []complex64)
//
// y[i] = x[i] + a*y[i], blocked as axpyC64AVX.
TEXT ·xpayC64AVX(SB), NOSPLIT, $0-56
	VBROADCASTSS a_real+24(FP), Y0
	VBROADCASTSS a_imag+28(FP), Y1
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+32(FP), DI
	CMPQ CX, $4
	JB   xpaytail

xpayloop:
	VMOVUPS (DI), Y2
	CMULPS(Y0, Y1, Y2, Y3, Y4)
	VADDPS  (SI), Y3, Y3
	VMOVUPS Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     xpayloop

xpaytail:
	TESTQ CX, CX
	JZ    xpaydone

xpayone:
	VMOVSD (DI), X2
	CMULPS(X0, X1, X2, X3, X4)
	VMOVSD (SI), X4
	VADDPS X4, X3, X3
	VMOVSD X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    xpayone

xpaydone:
	VZEROUPPER
	RET

// CDOT sets the float64 [re, im] pairs of p to conj(x)*y for the elements
// widened into x and y: (xr, -xi) times (yr, yi) as gc multiplies
// complex128, [xr*yr - (-xi)*yi, xr*yi + (-xi)*yr]. neg holds the sign
// mask; s is scratch.
#define CDOT(x, y, p, s, neg) \
	VMOVDDUP x, p; VPERMILPD $15, x, s; VXORPD neg, s, s; VMULPD y, p, p; \
	VPERMILPD $5, y, y; VMULPD y, s, s; VADDSUBPD s, p, p

// func dotC64AVX(x, y []complex64) complex128
//
// The running sum of conj(x[i])*y[i] from +0 in float64, elements widened
// two to a YMM register, each product added to the X0 chain in order.
TEXT ·dotC64AVX(SB), NOSPLIT, $0-64
	VMOVUPD negf64<>(SB), Y15
	MOVQ    x_base+0(FP), SI
	MOVQ    x_len+8(FP), CX
	MOVQ    y_base+24(FP), DI
	VXORPD  Y0, Y0, Y0
	CMPQ    CX, $4
	JB      dottail

dotloop:
	VCVTPS2PD (SI), Y2
	VCVTPS2PD (DI), Y3
	VCVTPS2PD 16(SI), Y6
	VCVTPS2PD 16(DI), Y7
	CDOT(Y2, Y3, Y4, Y5, Y15)
	CDOT(Y6, Y7, Y8, Y9, Y15)
	VADDPD       X4, X0, X0
	VEXTRACTF128 $1, Y4, X4
	VADDPD       X4, X0, X0
	VADDPD       X8, X0, X0
	VEXTRACTF128 $1, Y8, X8
	VADDPD       X8, X0, X0
	ADDQ         $32, SI
	ADDQ         $32, DI
	SUBQ         $4, CX
	CMPQ         CX, $4
	JAE          dotloop

dottail:
	TESTQ CX, CX
	JZ    dotdone

dotone:
	VCVTPS2PD (SI), X2
	VCVTPS2PD (DI), X3
	CDOT(X2, X3, X4, X5, X15)
	VADDPD X4, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    dotone

dotdone:
	VMOVSD  X0, ret_real+48(FP)
	VMOVHPD X0, ret_imag+56(FP)
	VZEROUPPER
	RET

// func normSqC64AVX(v []complex64) float64
//
// The running sum of re*re + im*im from +0 in float64, elements widened
// two to a YMM register and added to the X0 chain in order.
TEXT ·normSqC64AVX(SB), NOSPLIT, $0-32
	MOVQ   v_base+0(FP), SI
	MOVQ   v_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	CMPQ   CX, $4
	JB     normtail

normloop:
	VCVTPS2PD (SI), Y2
	VCVTPS2PD 16(SI), Y3
	SQ2(Y2, Y3, Y4)
	ADD4(Y4, X4, X0, X5)
	ADDQ $32, SI
	SUBQ $4, CX
	CMPQ CX, $4
	JAE  normloop

normtail:
	TESTQ CX, CX
	JZ    normdone

normone:
	VCVTPS2PD (SI), X2
	VMULPD    X2, X2, X2
	VHADDPD   X2, X2, X2
	VADDSD    X2, X0, X0
	ADDQ      $8, SI
	DECQ      CX
	JNZ       normone

normdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func axpyNormSqC64AVX(a complex64, x, y []complex64) float64
//
// axpyC64AVX, then the norm of each stored element added to the X8 chain
// in element order as normSqC64AVX adds it: one pass over x and y.
TEXT ·axpyNormSqC64AVX(SB), NOSPLIT, $0-64
	VBROADCASTSS a_real+0(FP), Y0
	VBROADCASTSS a_imag+4(FP), Y1
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	MOVQ   y_base+32(FP), DI
	VXORPD Y8, Y8, Y8
	CMPQ   CX, $4
	JB     antail

anloop:
	VMOVUPS (SI), Y2
	CMULPS(Y0, Y1, Y2, Y3, Y4)
	VADDPS  (DI), Y3, Y4
	VMOVUPS Y4, (DI)
	VCVTPS2PD    X4, Y2
	VEXTRACTF128 $1, Y4, X3
	VCVTPS2PD    X3, Y3
	SQ2(Y2, Y3, Y5)
	ADD4(Y5, X5, X8, X6)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	CMPQ CX, $4
	JAE  anloop

antail:
	TESTQ CX, CX
	JZ    andone

anone:
	VMOVSD (SI), X2
	CMULPS(X0, X1, X2, X3, X4)
	VMOVSD    (DI), X4
	VADDPS    X4, X3, X4
	VMOVSD    X4, (DI)
	VCVTPS2PD X4, X2
	VMULPD    X2, X2, X2
	VHADDPD   X2, X2, X2
	VADDSD    X2, X8, X8
	ADDQ      $8, SI
	ADDQ      $8, DI
	DECQ      CX
	JNZ       anone

andone:
	VMOVSD X8, ret+56(FP)
	VZEROUPPER
	RET
