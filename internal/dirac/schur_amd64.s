#include "textflag.h"

// The Schur kernel's hop on the lane-major layout (schur.go, DESIGN.md s19):
// hopSSE32 and hopSSE64 are fibreHop for one site, every lane of its
// fibre, in baseline SSE/SSE2 (GOAMD64=v1, no feature check). A register
// holds four float32 or two float64 lanes of a plane - one fifth-dimension
// slice a lane - and every instruction is a packed MUL, ADD, SUB or XOR
// with no fused multiply-add, issued in the order of the Go body's scalar
// operations (halfSpinor.project, mul or mulAdj, reconstruct, then the g5
// negation). Each lane therefore computes exactly what the Go body
// computes for its slice, to the bit.
//
// func hopSSE32(dst, src *float32, hops *lattice.Hop, u *[4][]link[float32], ls int, g5 bool)
// func hopSSE64(dst, src *float64, hops *lattice.Hop, u *[4][]link[float64], ls int, g5 bool)
//
// Registers: DI the output register group (the lanes one register holds),
// SI the input field at the same register group, BX the site's eight
// stencil entries, R8 the four link slices, R9 the fibre size in bytes, CX
// the register groups left (those holding a slice below ls), R12 and R13
// the steps to the next one, DX the g5 flag, AX the neighbour's register
// group, R10 the link. X0-X5 hold a link row broadcast (re, im of three
// entries), X6-X8 and X9-X11 build the real and imaginary plane of one
// transported colour, X12-X13 update the output, X14 is 0.5 and X15 the
// sign mask. The projected half spinor lives on the stack:
// twelve planes, component c's real plane at 32*c and imaginary at 32*c+16.

// A lane group of the layout is 24 planes of four lanes, PLANE bytes
// each: component j's real plane at 2*PLANE*j, its imaginary plane at
// 2*PLANE*j+PLANE. A float32 plane is one register, a float64 plane two,
// which the loop takes one after the other.

// NEIGHBOUR points AX at the lane group of hop d's neighbour and R10 at its
// link U_mu.
#define NEIGHBOUR(d, mu) \
	MOVLQSX ((d)*8)(BX), AX; IMULQ R9, AX; ADDQ SI, AX; \
	MOVLQSX ((d)*8+4)(BX), R10; IMUL3Q $LINK, R10, R10; ADDQ ((mu)*24)(R8), R10

// PJ sets projected component c to v[a] (+/-) v[b]: its real plane is
// a.re ore b[bre] and its imaginary one a.im oim b[bim].
#define PJ(a, b, c, ore, bre, oim, bim) \
	MOVUPS ((a)*2*PLANE)(AX), X6; MOVUPS ((b)*2*PLANE+(bre))(AX), X7; ore X7, X6; MOVUPS X6, ((c)*32)(SP); \
	MOVUPS ((a)*2*PLANE+PLANE)(AX), X8; MOVUPS ((b)*2*PLANE+(bim))(AX), X9; oim X9, X8; MOVUPS X8, ((c)*32+16)(SP)

// The four projections of a pair: a + b, a - b, a + i b, a - i b.
#define PADD(a, b, c) PJ(a, b, c, ADDV, 0, ADDV, PLANE)
#define PSUB(a, b, c) PJ(a, b, c, SUBV, 0, SUBV, PLANE)
#define PADDI(a, b, c) PJ(a, b, c, SUBV, PLANE, ADDV, 0)
#define PSUBI(a, b, c) PJ(a, b, c, ADDV, PLANE, SUBV, 0)

// PROJ applies the pair projection P0 to colours 0-2, paired with the
// spinor components from lo0, and P1 to colours 3-5, paired from lo1.
#define PROJ(P0, lo0, P1, lo1) \
	P0(0, (lo0), 0); P0(1, (lo0)+1, 1); P0(2, (lo0)+2, 2); \
	P1(3, (lo1), 3); P1(4, (lo1)+1, 4); P1(5, (lo1)+2, 5)

// halfSpinor.project, direction by direction.
#define PROJ0 PROJ(PSUBI, 9, PSUBI, 6)
#define PROJ1 PROJ(PADDI, 9, PADDI, 6)
#define PROJ2 PROJ(PADD, 9, PSUB, 6)
#define PROJ3 PROJ(PSUB, 9, PADD, 6)
#define PROJ4 PROJ(PSUBI, 6, PADDI, 9)
#define PROJ5 PROJ(PADDI, 6, PSUBI, 9)
#define PROJ6 PROJ(PSUB, 6, PSUB, 9)
#define PROJ7 PROJ(PADD, 6, PADD, 9)

// ROWM broadcasts row r of U (mul), ROWA column r (mulAdj): entry c's real
// part into X(2c), its imaginary part into X(2c+1).
#define ROWM(r) \
	BCAST(((r)*3+0)*ENTRY, X0); BCAST(((r)*3+0)*ENTRY+IMAG, X1); \
	BCAST(((r)*3+1)*ENTRY, X2); BCAST(((r)*3+1)*ENTRY+IMAG, X3); \
	BCAST(((r)*3+2)*ENTRY, X4); BCAST(((r)*3+2)*ENTRY+IMAG, X5)
#define ROWA(r) \
	BCAST((0*3+(r))*ENTRY, X0); BCAST((0*3+(r))*ENTRY+IMAG, X1); \
	BCAST((1*3+(r))*ENTRY, X2); BCAST((1*3+(r))*ENTRY+IMAG, X3); \
	BCAST((2*3+(r))*ENTRY, X4); BCAST((2*3+(r))*ENTRY+IMAG, X5)

// PRODUCT sets X6, X9 to the broadcast row times the colour vector at
// projected component h, halved: cx.times (ore SUB, oim ADD) or cx.conjTimes
// (ore ADD, oim SUB) per entry, the three summed left to right, then
// scale(0.5).
#define PRODUCT(h, ore, oim) \
	MOVUPS ((h)*32)(SP), X6; MULV X0, X6; MOVUPS ((h)*32+16)(SP), X7; MULV X1, X7; ore X7, X6; \
	MOVUPS ((h)*32+32)(SP), X7; MULV X2, X7; MOVUPS ((h)*32+48)(SP), X8; MULV X3, X8; ore X8, X7; ADDV X7, X6; \
	MOVUPS ((h)*32+64)(SP), X7; MULV X4, X7; MOVUPS ((h)*32+80)(SP), X8; MULV X5, X8; ore X8, X7; ADDV X7, X6; \
	MULV X14, X6; \
	MOVUPS ((h)*32+16)(SP), X9; MULV X0, X9; MOVUPS ((h)*32)(SP), X10; MULV X1, X10; oim X10, X9; \
	MOVUPS ((h)*32+48)(SP), X10; MULV X2, X10; MOVUPS ((h)*32+32)(SP), X11; MULV X3, X11; oim X11, X10; ADDV X10, X9; \
	MOVUPS ((h)*32+80)(SP), X10; MULV X4, X10; MOVUPS ((h)*32+64)(SP), X11; MULV X5, X11; oim X11, X10; ADDV X10, X9; \
	MULV X14, X9

// RL updates output component o: o.re ore wre, o.im oim wim, with the
// transported colour's parts in X6 (re) and X9 (im).
#define RL(o, ore, wre, oim, wim) \
	MOVUPS ((o)*2*PLANE)(DI), X12; ore wre, X12; MOVUPS X12, ((o)*2*PLANE)(DI); \
	MOVUPS ((o)*2*PLANE+PLANE)(DI), X13; oim wim, X13; MOVUPS X13, ((o)*2*PLANE+PLANE)(DI)

// The four reconstructions: o + w, o - w, o + i w, o - i w.
#define RADD(o) RL(o, ADDV, X6, ADDV, X9)
#define RSUB(o) RL(o, SUBV, X6, SUBV, X9)
#define RADDI(o) RL(o, SUBV, X9, ADDV, X6)
#define RSUBI(o) RL(o, ADDV, X9, SUBV, X6)

// MULROW transports both colour vectors through row r and reconstructs
// them: upper spins minus w, lower spins R0 from lo0 (colours 0-2) and R1
// from lo1 (colours 3-5).
#define MULROW(ROW, r, ore, oim, R0, lo0, R1, lo1) \
	ROW(r); \
	PRODUCT(0, ore, oim); RSUB(r); R0((lo0)+(r)); \
	PRODUCT(3, ore, oim); RSUB(3+(r)); R1((lo1)+(r))

// MUL is halfSpinor.mul then reconstruct, MULADJ mulAdj then reconstruct.
#define MUL(R0, lo0, R1, lo1) \
	MULROW(ROWM, 0, SUBV, ADDV, R0, lo0, R1, lo1); \
	MULROW(ROWM, 1, SUBV, ADDV, R0, lo0, R1, lo1); \
	MULROW(ROWM, 2, SUBV, ADDV, R0, lo0, R1, lo1)
#define MULADJ(R0, lo0, R1, lo1) \
	MULROW(ROWA, 0, ADDV, SUBV, R0, lo0, R1, lo1); \
	MULROW(ROWA, 1, ADDV, SUBV, R0, lo0, R1, lo1); \
	MULROW(ROWA, 2, ADDV, SUBV, R0, lo0, R1, lo1)

// halfSpinor.reconstruct's lower spins, direction by direction, after
// mul (even directions) or mulAdj (odd ones).
#define HOP0 MUL(RSUBI, 9, RSUBI, 6)
#define HOP1 MULADJ(RADDI, 9, RADDI, 6)
#define HOP2 MUL(RSUB, 9, RADD, 6)
#define HOP3 MULADJ(RADD, 9, RSUB, 6)
#define HOP4 MUL(RSUBI, 6, RADDI, 9)
#define HOP5 MULADJ(RADDI, 6, RSUBI, 9)
#define HOP6 MUL(RADD, 6, RADD, 9)
#define HOP7 MULADJ(RSUB, 6, RSUB, 9)

// ZERO clears the output planes: every accumulator starts at +0.
#define ZERO \
	XORPS X0, X0; \
	MOVUPS X0, (0*PLANE)(DI); MOVUPS X0, (1*PLANE)(DI); MOVUPS X0, (2*PLANE)(DI); MOVUPS X0, (3*PLANE)(DI); \
	MOVUPS X0, (4*PLANE)(DI); MOVUPS X0, (5*PLANE)(DI); MOVUPS X0, (6*PLANE)(DI); MOVUPS X0, (7*PLANE)(DI); \
	MOVUPS X0, (8*PLANE)(DI); MOVUPS X0, (9*PLANE)(DI); MOVUPS X0, (10*PLANE)(DI); MOVUPS X0, (11*PLANE)(DI); \
	MOVUPS X0, (12*PLANE)(DI); MOVUPS X0, (13*PLANE)(DI); MOVUPS X0, (14*PLANE)(DI); MOVUPS X0, (15*PLANE)(DI); \
	MOVUPS X0, (16*PLANE)(DI); MOVUPS X0, (17*PLANE)(DI); MOVUPS X0, (18*PLANE)(DI); MOVUPS X0, (19*PLANE)(DI); \
	MOVUPS X0, (20*PLANE)(DI); MOVUPS X0, (21*PLANE)(DI); MOVUPS X0, (22*PLANE)(DI); MOVUPS X0, (23*PLANE)(DI)

// NEG flips the sign of output plane q: gamma_5 on a lower spin.
#define NEG(q) MOVUPS ((q)*PLANE)(DI), X12; XORPS X15, X12; MOVUPS X12, ((q)*PLANE)(DI)

// NEGLOWER is the output gamma_5: planes 12-23 are spins 2 and 3.
#define NEGLOWER \
	NEG(12); NEG(13); NEG(14); NEG(15); NEG(16); NEG(17); \
	NEG(18); NEG(19); NEG(20); NEG(21); NEG(22); NEG(23)

// The float32 body: four slices a register.
#define ADDV ADDPS
#define SUBV SUBPS
#define MULV MULPS
#define BCAST(off, r) MOVSS (off)(R10), r; SHUFPS $0x00, r, r
#define ENTRY 8
#define IMAG 4
#define LINK 72
#define PLANE 16
#define GROUP 384

TEXT ·hopSSE32(SB), NOSPLIT, $192-41
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ hops+16(FP), BX
	MOVQ u+24(FP), R8
	MOVQ ls+32(FP), CX
	MOVBQZX g5+40(FP), DX
	ADDQ $3, CX
	SHRQ $2, CX
	IMUL3Q $GROUP, CX, R9
	MOVQ $GROUP, R12
	MOVQ $GROUP, R13
	MOVL $0x3f000000, R11
	MOVQ R11, X14
	SHUFPS $0x00, X14, X14
	MOVL $0x80000000, R11
	MOVQ R11, X15
	SHUFPS $0x00, X15, X15

group32:
	ZERO

	NEIGHBOUR(0, 0)
	TESTQ DX, DX
	JNE   g5p0
	PROJ0
	JMP   mul0
g5p0:
	PROJ1
mul0:
	HOP0

	NEIGHBOUR(1, 0)
	TESTQ DX, DX
	JNE   g5p1
	PROJ1
	JMP   mul1
g5p1:
	PROJ0
mul1:
	HOP1

	NEIGHBOUR(2, 1)
	TESTQ DX, DX
	JNE   g5p2
	PROJ2
	JMP   mul2
g5p2:
	PROJ3
mul2:
	HOP2

	NEIGHBOUR(3, 1)
	TESTQ DX, DX
	JNE   g5p3
	PROJ3
	JMP   mul3
g5p3:
	PROJ2
mul3:
	HOP3

	NEIGHBOUR(4, 2)
	TESTQ DX, DX
	JNE   g5p4
	PROJ4
	JMP   mul4
g5p4:
	PROJ5
mul4:
	HOP4

	NEIGHBOUR(5, 2)
	TESTQ DX, DX
	JNE   g5p5
	PROJ5
	JMP   mul5
g5p5:
	PROJ4
mul5:
	HOP5

	NEIGHBOUR(6, 3)
	TESTQ DX, DX
	JNE   g5p6
	PROJ6
	JMP   mul6
g5p6:
	PROJ7
mul6:
	HOP6

	NEIGHBOUR(7, 3)
	TESTQ DX, DX
	JNE   g5p7
	PROJ7
	JMP   mul7
g5p7:
	PROJ6
mul7:
	HOP7

	TESTQ DX, DX
	JEQ   next32
	NEGLOWER

next32:
	ADDQ R12, DI
	ADDQ R12, SI
	XCHGQ R12, R13
	DECQ CX
	JNZ  group32
	RET

#undef ADDV
#undef SUBV
#undef MULV
#undef BCAST
#undef ENTRY
#undef IMAG
#undef LINK
#undef PLANE
#undef GROUP

// The float64 body: two slices a register.
#define ADDV ADDPD
#define SUBV SUBPD
#define MULV MULPD
#define BCAST(off, r) MOVSD (off)(R10), r; SHUFPD $0x00, r, r
#define ENTRY 16
#define IMAG 8
#define LINK 144
#define PLANE 32
#define GROUP 768

TEXT ·hopSSE64(SB), NOSPLIT, $192-41
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ hops+16(FP), BX
	MOVQ u+24(FP), R8
	MOVQ ls+32(FP), CX
	MOVBQZX g5+40(FP), DX
	LEAQ 3(CX), R9
	SHRQ $2, R9
	IMUL3Q $GROUP, R9, R9
	ADDQ $1, CX
	SHRQ $1, CX
	MOVQ $16, R12
	MOVQ $(GROUP-16), R13
	MOVQ $0x3fe0000000000000, R11
	MOVQ R11, X14
	SHUFPD $0x00, X14, X14
	MOVQ $0x8000000000000000, R11
	MOVQ R11, X15
	SHUFPD $0x00, X15, X15

group64:
	ZERO

	NEIGHBOUR(0, 0)
	TESTQ DX, DX
	JNE   g5p0
	PROJ0
	JMP   mul0
g5p0:
	PROJ1
mul0:
	HOP0

	NEIGHBOUR(1, 0)
	TESTQ DX, DX
	JNE   g5p1
	PROJ1
	JMP   mul1
g5p1:
	PROJ0
mul1:
	HOP1

	NEIGHBOUR(2, 1)
	TESTQ DX, DX
	JNE   g5p2
	PROJ2
	JMP   mul2
g5p2:
	PROJ3
mul2:
	HOP2

	NEIGHBOUR(3, 1)
	TESTQ DX, DX
	JNE   g5p3
	PROJ3
	JMP   mul3
g5p3:
	PROJ2
mul3:
	HOP3

	NEIGHBOUR(4, 2)
	TESTQ DX, DX
	JNE   g5p4
	PROJ4
	JMP   mul4
g5p4:
	PROJ5
mul4:
	HOP4

	NEIGHBOUR(5, 2)
	TESTQ DX, DX
	JNE   g5p5
	PROJ5
	JMP   mul5
g5p5:
	PROJ4
mul5:
	HOP5

	NEIGHBOUR(6, 3)
	TESTQ DX, DX
	JNE   g5p6
	PROJ6
	JMP   mul6
g5p6:
	PROJ7
mul6:
	HOP6

	NEIGHBOUR(7, 3)
	TESTQ DX, DX
	JNE   g5p7
	PROJ7
	JMP   mul7
g5p7:
	PROJ6
mul7:
	HOP7

	TESTQ DX, DX
	JEQ   next64
	NEGLOWER

next64:
	ADDQ R12, DI
	ADDQ R12, SI
	XCHGQ R12, R13
	DECQ CX
	JNZ  group64
	RET
