#include "textflag.h"

// func haveAVX() bool
//
// The start-up probe behind every AVX body of the tree (this file's half
// round trip, internal/dirac's hop): CPUID.1:ECX must report AVX (bit 28)
// and OSXSAVE (bit 27), and XCR0, read by XGETBV, must show that the OS
// saves both the XMM (bit 1) and the YMM (bit 2) state across context
// switches.
TEXT ·haveAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   noavx
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   noavx
	MOVB  $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

DATA absf32<>+0(SB)/4, $0x7fffffff
DATA absf32<>+4(SB)/4, $0x7fffffff
DATA absf32<>+8(SB)/4, $0x7fffffff
DATA absf32<>+12(SB)/4, $0x7fffffff
DATA absf32<>+16(SB)/4, $0x7fffffff
DATA absf32<>+20(SB)/4, $0x7fffffff
DATA absf32<>+24(SB)/4, $0x7fffffff
DATA absf32<>+28(SB)/4, $0x7fffffff
GLOBL absf32<>(SB), RODATA|NOPTR, $32

DATA maxf32<>+0(SB)/4, $0x7f7fffff
DATA maxf32<>+4(SB)/4, $0x7f7fffff
DATA maxf32<>+8(SB)/4, $0x7f7fffff
DATA maxf32<>+12(SB)/4, $0x7f7fffff
DATA maxf32<>+16(SB)/4, $0x7f7fffff
DATA maxf32<>+20(SB)/4, $0x7f7fffff
DATA maxf32<>+24(SB)/4, $0x7f7fffff
DATA maxf32<>+28(SB)/4, $0x7f7fffff
GLOBL maxf32<>(SB), RODATA|NOPTR, $32

// halfMax as a float32 and as a float64.
DATA hmax32<>+0(SB)/4, $0x46fffe00
DATA hmax32<>+4(SB)/4, $0x46fffe00
DATA hmax32<>+8(SB)/4, $0x46fffe00
DATA hmax32<>+12(SB)/4, $0x46fffe00
GLOBL hmax32<>(SB), RODATA|NOPTR, $16

DATA hmax64<>+0(SB)/8, $0x40dfffc000000000
DATA hmax64<>+8(SB)/8, $0x40dfffc000000000
DATA hmax64<>+16(SB)/8, $0x40dfffc000000000
DATA hmax64<>+24(SB)/8, $0x40dfffc000000000
GLOBL hmax64<>(SB), RODATA|NOPTR, $32

// func halfRoundTripAVX(v *complex64, blocks int) bool
//
// halfRoundTripC64 on blocks >= 1 blocks of twelve complex64 - 24 floats,
// three YMM registers - in VEX-encoded AVX, returning whether every
// component it read was finite. Per block:
//
//   - m, the largest |x|, is a VMAXPS tree that starts from +0 with |x| as
//     the first operand, so a NaN never wins, as in maxAbsC64; the maximum
//     of a set does not depend on the order it is taken in.
//   - q = halfMax/float64(m) and s = m/halfMax are the Go body's divisions.
//   - Each component is rounded in the float64 domain: y = float64(x)*q,
//     t = trunc(y), r = t + trunc(2(y-t)) + 0. That is roundHalfAway's
//     arithmetic with float64(int32(.)) spelled as a truncation, exact for
//     the |y| <= halfMax a finite block makes; the +0 turns the -0 of a
//     small negative y into the +0 the integer gives. A NaN y - a NaN
//     component, or any component of a block whose m is 0 (q = +Inf) or
//     +Inf (q = 0) - is sent to r = +0, which is what int32 conversion and
//     its wrapping sum make of it in Go.
//   - The result is float32(r)*s, so a block of zeros comes out +0 and a
//     block with an infinity comes out 0*Inf = NaN, as in the Go body.
//
// The finite flag ORs |x| !<= MaxFloat32 (true for an infinity and for a
// NaN) over every component read.
//
// Registers: DI the block, CX the blocks left, Y0-Y2 its components, Y3-Y5
// their magnitudes, X6 m, Y7 s, Y8 q, Y9-Y11 the rounding of four
// components, Y12 MaxFloat32, Y13 +0, Y14 the non-finite lanes, Y15 the
// magnitude mask.

// ROUND4 sets X dst to the four float32 components in X src rounded
// through the format, before the multiply by s.
#define ROUND4(src, dst) \
	VCVTPS2PD src, Y10; VMULPD Y8, Y10, Y10; VCMPPD $7, Y10, Y10, Y9; \
	VROUNDPD $3, Y10, Y11; VSUBPD Y11, Y10, Y10; VADDPD Y10, Y10, Y10; VROUNDPD $3, Y10, Y10; \
	VADDPD Y10, Y11, Y11; VADDPD Y13, Y11, Y11; VANDPD Y9, Y11, Y11; VCVTPD2PSY Y11, dst

// ROUND8 rounds the eight components in Y r and stores them at off.
#define ROUND8(r, x, off) \
	ROUND4(x, X3); VEXTRACTF128 $1, r, X4; ROUND4(X4, X4); \
	VINSERTF128 $1, X4, Y3, Y3; VMULPS Y7, Y3, Y3; VMOVUPS Y3, off(DI)

TEXT ·halfRoundTripAVX(SB), NOSPLIT, $0-17
	MOVQ    v+0(FP), DI
	MOVQ    blocks+8(FP), CX
	VMOVUPS absf32<>(SB), Y15
	VMOVUPS maxf32<>(SB), Y12
	VXORPS  Y13, Y13, Y13
	VXORPS  Y14, Y14, Y14

block:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VANDPS  Y15, Y0, Y3
	VANDPS  Y15, Y1, Y4
	VANDPS  Y15, Y2, Y5
	VCMPPS  $0x16, Y12, Y3, Y6
	VORPS   Y6, Y14, Y14
	VCMPPS  $0x16, Y12, Y4, Y6
	VORPS   Y6, Y14, Y14
	VCMPPS  $0x16, Y12, Y5, Y6
	VORPS   Y6, Y14, Y14
	VMAXPS  Y13, Y3, Y6
	VMAXPS  Y6, Y4, Y6
	VMAXPS  Y6, Y5, Y6
	VEXTRACTF128 $1, Y6, X7
	VMAXPS  X7, X6, X6
	VPERMILPS $0x4e, X6, X7
	VMAXPS  X7, X6, X6
	VPERMILPS $0xb1, X6, X7
	VMAXPS  X7, X6, X6
	VDIVPS  hmax32<>(SB), X6, X7
	VINSERTF128 $1, X7, Y7, Y7
	VCVTPS2PD X6, Y8
	VMOVUPD hmax64<>(SB), Y9
	VDIVPD  Y8, Y9, Y8
	ROUND8(Y0, X0, 0)
	ROUND8(Y1, X1, 32)
	ROUND8(Y2, X2, 64)
	ADDQ    $96, DI
	DECQ    CX
	JNZ     block

	VMOVMSKPS Y14, AX
	TESTL   AX, AX
	SETEQ   ret+16(FP)
	VZEROUPPER
	RET
