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
// func hopSSE32(dst, src *float32, hops *lattice.Hop, u *[4][]link[float32], keep *float32, ls int, g5 bool)
// func hopSSE64(dst, src *float64, hops *lattice.Hop, u *[4][]link[float64], keep *float64, ls int, g5 bool)
//
// Registers: DI the output register group (the lanes one register holds),
// SI the input field at the same register group, BX the site's eight
// stencil entries, R8 the four link slices, R9 the fibre size in bytes, CX
// the register groups left (those holding a slice below ls), R12 and R13
// the steps to the next one, DX the g5 flag, AX the neighbour's register
// group, R10 the link, R11 the register group's lanes of keep. X0-X5 hold
// a link row broadcast (re, im of three entries), X6-X8 and X9-X11 build
// the real and imaginary plane of one transported colour, X12-X13 update
// the output, X14 is 0.5 and X15 the sign mask, ANDed with keep so that
// the g5 negation leaves a padding lane +0. The projected half spinor lives
// on the stack: twelve planes, component c's real plane at 32*c and
// imaginary at 32*c+16, then the sign mask at 192.

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

// SIGNKEEP sets X15 to the sign mask in the register group's real lanes.
#define SIGNKEEP MOVUPS (R11), X15; MOVUPS 192(SP), X12; ANDPS X12, X15

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

TEXT ·hopSSE32(SB), NOSPLIT, $208-49
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ hops+16(FP), BX
	MOVQ u+24(FP), R8
	MOVQ ls+40(FP), CX
	MOVBQZX g5+48(FP), DX
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
	MOVUPS X15, 192(SP)
	MOVQ keep+32(FP), R11

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
	SIGNKEEP
	NEGLOWER

next32:
	ADDQ $16, R11
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

TEXT ·hopSSE64(SB), NOSPLIT, $208-49
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ hops+16(FP), BX
	MOVQ u+24(FP), R8
	MOVQ ls+40(FP), CX
	MOVBQZX g5+48(FP), DX
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
	MOVUPS X15, 192(SP)
	MOVQ keep+32(FP), R11

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
	SIGNKEEP
	NEGLOWER

next64:
	ADDQ $16, R11
	ADDQ R12, DI
	ADDQ R12, SI
	XCHGQ R12, R13
	DECQ CX
	JNZ  group64
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

// The fifth-dimension passes on the same layout: fibreAInv, fibreBA,
// fibreBAxpy, fibreAxpy, load and store for one site, as the hop is
// fibreHop for one. The rule is the hop's: packed MUL, ADD and SUB with no
// fused multiply-add, each lane issuing its slice's scalar operations in
// the Go body's order; the rest is data movement (loads, stores,
// shuffles) and bit masks (AND, ANDN, OR, compare), which change no value
// they let through. Where a body computes a padding lane it ANDs it back
// to +0 (keep: all bits set in a real lane, zero in a padding one), so
// every padding lane of the scratch stays +0 (DESIGN.md s19).
//
// func aInvSSE32(dst, src, colP, colM *float32, lane *int, ls int)
// func aInvSSE64(dst, src, colP, colM *float64, lane *int, ls int)
//
// fibreAInv: per register group of the output and per sector (planes 0-11
// from colP, 12-23 from colM), twelve accumulators start at +0 and take,
// in sIn order, the input slice broadcast times the padded column, ANDed
// with the column's non-zero mask. Where the Go body adds w*v for a
// non-zero weight this adds the same product; where it skips a zero weight
// this adds +0, and an accumulator that starts at +0 is never -0 (a sum
// that is zero rounds to +0), so adding +0 leaves it as it was, NaN
// included - and a zero weight never multiplies an infinity into a NaN
// that reaches the sum. The padding lanes' columns are zero: they add only
// +0 and stay +0.
//
// Registers: DI the output register group, SI the input fibre, R8/R9 the
// columns of P+/P- at this register group, R10 lane, CX ls, R11 the column
// stride (a padded column, in bytes), DX the register groups left, R12 the
// column of slice BX, R13 the sector's plane offset, AX the input slice.
// X0-X11 accumulate, X12 is the column, X13 its mask, X15 zero. The steps
// to the next register group alternate through the two stack words.
#define AACC(q, acc) BCASTM(((q)*PLANE), AX, X14); MULV X12, X14; ANDPS X13, X14; ADDV X14, acc

// fibreBA and fibreBAxpy: chi is a fixed rotation of a block's lanes
// (ROTDN, each lane from slice s-1; ROTUP, from s+1) with the one lane
// whose neighbour lies across the block edge or the chiral wrap - rep of
// the block's chiBlock - replaced by that neighbour broadcast (slice src);
// then wt, 1 in the bulk and -m at the wrap, multiplies it as the Go body
// multiplies by pw or mw (1*x is x, to the bit). The rotation reads only
// the block's own lanes and the broadcast a real slice of the fibre, and a
// real lane never takes a padding lane: every lane is
// w0*x + w1*(wt*chi x), the Go body's order, and ANDed with keep.
// fibreBAxpy then forms the complex product by (-1, 0) of the output's
// own planes, (-1*re - 0*im, -1*im + 0*re), and adds that result, as
// fibreAxpy does with the field it is given.
//
// func baSSE32(dst, src *float32, chi *chiBlock[float32], keep *float32, groups int, w0, w1 float32, dagger bool)
// func baSSE64(dst, src *float64, chi *chiBlock[float64], keep *float64, groups int, w0, w1 float64, dagger bool)
// func baxpySSE32(z, y *float32, chi *chiBlock[float32], keep *float32, groups int, w0, w1 float32, dagger bool)
// func baxpySSE64(z, y *float64, chi *chiBlock[float64], keep *float64, groups int, w0, w1 float64, dagger bool)
// func axpySSE32(y, x, keep *float32, groups int)
// func axpySSE64(y, x, keep *float64, groups int)
//
// Registers: DI the output block, SI the input block, BX its chiBlock, R8
// its keep, CX the blocks left, DX the dagger flag (chi^dagger swaps the
// shifts of the two sectors), AX the broadcast slice. X15 is w0, X14 w1;
// the rest is per precision, below.
//
// load and store transpose between a caller's field, where slice s of the
// site starts stride complex numbers after slice s-1, and a block of
// planes: four slices a block, a float32 4x4 transpose of (re, im, re, im)
// rows, or a float64 2x2 one of (re, im) rows. Only real slices are read
// or written: a padding slice reads a zeroed spinor on the stack (load)
// or writes one there (store).
//
// func loadSSE32(dst, src *float32, stride, ls int)
// func loadSSE64(dst, src *float64, stride, ls int)
// func storeSSE32(dst, src *float32, stride, ls int)
// func storeSSE64(dst, src *float64, stride, ls int)
//
// Registers: DI the fibre's block, SI the field at the block's first
// slice, DX the stride in bytes, CX the slices left, R8-R11 the block's
// four slices (or the stack spinor).

// SLICES points R8-R11 at the block's slices, real ones in the field and
// the rest at the stack spinor.
#define SLICES \
	MOVQ SI, R8; LEAQ 0(SP), R9; MOVQ R9, R10; MOVQ R9, R11; \
	CMPQ CX, $2; JLT slicesDone; LEAQ (SI)(DX*1), R9; \
	CMPQ CX, $3; JLT slicesDone; LEAQ (SI)(DX*2), R10; \
	CMPQ CX, $4; JLT slicesDone; LEAQ (R10)(DX*1), R11

// The float32 bodies: a plane is one register.
#define ADDV ADDPS
#define SUBV SUBPS
#define MULV MULPS
#define BCASTM(off, base, r) MOVSS off(base), r; SHUFPS $0x00, r, r
#define PLANE 16
#define GROUP 384
#define CHIBLK 80
#define ROTDN(r) SHUFPS $0x93, r, r
#define ROTUP(r) SHUFPS $0x39, r, r

TEXT ·aInvSSE32(SB), NOSPLIT, $16-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ colP+16(FP), R8
	MOVQ colM+24(FP), R9
	MOVQ lane+32(FP), R10
	MOVQ ls+40(FP), CX
	LEAQ 3(CX), R11
	SHRQ $2, R11
	MOVQ R11, DX
	SHLQ $4, R11
	MOVQ $GROUP, 0(SP)
	MOVQ $GROUP, 8(SP)
	XORPS X15, X15

agroup32:
	MOVQ R8, R12
	XORQ R13, R13

asector32:
	XORPS X0, X0; XORPS X1, X1; XORPS X2, X2; XORPS X3, X3
	XORPS X4, X4; XORPS X5, X5; XORPS X6, X6; XORPS X7, X7
	XORPS X8, X8; XORPS X9, X9; XORPS X10, X10; XORPS X11, X11
	XORQ BX, BX

aslice32:
	MOVUPS (R12), X12
	MOVAPS X12, X13
	CMPPS  X15, X13, $4
	MOVQ   (R10)(BX*8), AX
	LEAQ   (SI)(AX*4), AX
	ADDQ   R13, AX
	AACC(0, X0); AACC(1, X1); AACC(2, X2); AACC(3, X3)
	AACC(4, X4); AACC(5, X5); AACC(6, X6); AACC(7, X7)
	AACC(8, X8); AACC(9, X9); AACC(10, X10); AACC(11, X11)
	ADDQ R11, R12
	INCQ BX
	CMPQ BX, CX
	JLT  aslice32

	LEAQ (DI)(R13*1), AX
	MOVUPS X0, (0*PLANE)(AX); MOVUPS X1, (1*PLANE)(AX); MOVUPS X2, (2*PLANE)(AX); MOVUPS X3, (3*PLANE)(AX)
	MOVUPS X4, (4*PLANE)(AX); MOVUPS X5, (5*PLANE)(AX); MOVUPS X6, (6*PLANE)(AX); MOVUPS X7, (7*PLANE)(AX)
	MOVUPS X8, (8*PLANE)(AX); MOVUPS X9, (9*PLANE)(AX); MOVUPS X10, (10*PLANE)(AX); MOVUPS X11, (11*PLANE)(AX)
	TESTQ R13, R13
	JNE   anext32
	MOVQ  $(12*PLANE), R13
	MOVQ  R9, R12
	JMP   asector32

anext32:
	ADDQ $16, R8
	ADDQ $16, R9
	MOVQ 0(SP), AX
	ADDQ AX, DI
	MOVQ 8(SP), BX
	MOVQ BX, 0(SP)
	MOVQ AX, 8(SP)
	DECQ DX
	JNZ  agroup32
	RET

// BAV sets R to B (or A) of the source plane at q, from the sector's rep
// (X13), wt (X12) and broadcast slice (AX); it uses X1-X3.
#define BAV(q, R, ROT) \
	MOVUPS (q)(SI), R; MOVAPS R, X1; ROT(X1); MOVAPS X13, X2; ANDNPS X1, X2; \
	BCASTM(q, AX, X3); ANDPS X13, X3; ORPS X3, X2; \
	MULPS X12, X2; MULPS X14, X2; MULPS X15, R; ADDPS X2, R

// BASECTOR loads shift t's tables and runs BODY on the sector's twelve
// planes from plane offset base.
#define BASECTOR(t, base, ROT, BODY) \
	MOVUPS ((t)*PLANE)(BX), X13; MOVUPS ((2+(t))*PLANE)(BX), X12; \
	MOVQ (4*PLANE+(t)*8)(BX), AX; LEAQ (SI)(AX*4), AX; \
	BODY((base)+0*PLANE, ROT); BODY((base)+2*PLANE, ROT); BODY((base)+4*PLANE, ROT); \
	BODY((base)+6*PLANE, ROT); BODY((base)+8*PLANE, ROT); BODY((base)+10*PLANE, ROT)

// BAPAIR is fibreBA on the real and imaginary planes of a component.
#define BAPAIR(q, ROT) \
	BAV(q, X0, ROT); ANDPS X11, X0; MOVUPS X0, (q)(DI); \
	BAV((q)+PLANE, X0, ROT); ANDPS X11, X0; MOVUPS X0, ((q)+PLANE)(DI)

// BXPAIR is fibreBAxpy on them: X10 is -1, X9 zero.
#define BXPAIR(q, ROT) \
	BAV(q, X4, ROT); BAV((q)+PLANE, X5, ROT); \
	MOVUPS (q)(DI), X6; MOVUPS ((q)+PLANE)(DI), X7; \
	MOVAPS X6, X0; MULPS X10, X0; MOVAPS X7, X1; MULPS X9, X1; SUBPS X1, X0; ADDPS X4, X0; \
	ANDPS X11, X0; MOVUPS X0, (q)(DI); \
	MULPS X10, X7; MULPS X9, X6; ADDPS X6, X7; ADDPS X5, X7; \
	ANDPS X11, X7; MOVUPS X7, ((q)+PLANE)(DI)

TEXT ·baSSE32(SB), NOSPLIT, $0-49
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ chi+16(FP), BX
	MOVQ keep+24(FP), R8
	MOVQ groups+32(FP), CX
	MOVSS w0+40(FP), X15
	SHUFPS $0x00, X15, X15
	MOVSS w1+44(FP), X14
	SHUFPS $0x00, X14, X14
	MOVBQZX dagger+48(FP), DX

bablock32:
	MOVUPS (R8), X11
	TESTQ  DX, DX
	JNE    badag32
	BASECTOR(0, 0, ROTDN, BAPAIR)
	BASECTOR(1, 12*PLANE, ROTUP, BAPAIR)
	JMP    banext32

badag32:
	BASECTOR(1, 0, ROTUP, BAPAIR)
	BASECTOR(0, 12*PLANE, ROTDN, BAPAIR)

banext32:
	ADDQ $GROUP, DI
	ADDQ $GROUP, SI
	ADDQ $CHIBLK, BX
	ADDQ $16, R8
	DECQ CX
	JNZ  bablock32
	RET

TEXT ·baxpySSE32(SB), NOSPLIT, $0-49
	MOVQ z+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ chi+16(FP), BX
	MOVQ keep+24(FP), R8
	MOVQ groups+32(FP), CX
	MOVSS w0+40(FP), X15
	SHUFPS $0x00, X15, X15
	MOVSS w1+44(FP), X14
	SHUFPS $0x00, X14, X14
	MOVBQZX dagger+48(FP), DX
	MOVL $0xbf800000, AX
	MOVQ AX, X10
	SHUFPS $0x00, X10, X10
	XORPS X9, X9

bxblock32:
	MOVUPS (R8), X11
	TESTQ  DX, DX
	JNE    bxdag32
	BASECTOR(0, 0, ROTDN, BXPAIR)
	BASECTOR(1, 12*PLANE, ROTUP, BXPAIR)
	JMP    bxnext32

bxdag32:
	BASECTOR(1, 0, ROTUP, BXPAIR)
	BASECTOR(0, 12*PLANE, ROTDN, BXPAIR)

bxnext32:
	ADDQ $GROUP, DI
	ADDQ $GROUP, SI
	ADDQ $CHIBLK, BX
	ADDQ $16, R8
	DECQ CX
	JNZ  bxblock32
	RET

// AXPAIR is fibreAxpy on one register of a component's planes at q, the
// lanes of keep K: y = (-1*xr - 0*xi + yr, -1*xi + 0*xr + yi), X10 -1 and
// X9 zero.
#define AXPAIR(q, K) \
	MOVUPS (q)(SI), X0; MOVUPS ((q)+PLANE)(SI), X1; MOVUPS (q)(DI), X2; MOVUPS ((q)+PLANE)(DI), X3; \
	MOVAPS X0, X4; MULV X10, X4; MOVAPS X1, X5; MULV X9, X5; SUBV X5, X4; ADDV X2, X4; \
	ANDPS K, X4; MOVUPS X4, (q)(DI); \
	MULV X10, X1; MULV X9, X0; ADDV X0, X1; ADDV X3, X1; \
	ANDPS K, X1; MOVUPS X1, ((q)+PLANE)(DI)

// AXBLOCK runs AXPAIR on the twelve components of a block from offset h.
#define AXBLOCK(h, K) \
	AXPAIR((h)+0*PLANE, K); AXPAIR((h)+2*PLANE, K); AXPAIR((h)+4*PLANE, K); \
	AXPAIR((h)+6*PLANE, K); AXPAIR((h)+8*PLANE, K); AXPAIR((h)+10*PLANE, K); \
	AXPAIR((h)+12*PLANE, K); AXPAIR((h)+14*PLANE, K); AXPAIR((h)+16*PLANE, K); \
	AXPAIR((h)+18*PLANE, K); AXPAIR((h)+20*PLANE, K); AXPAIR((h)+22*PLANE, K)

TEXT ·axpySSE32(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ keep+16(FP), R8
	MOVQ groups+24(FP), CX
	MOVL $0xbf800000, AX
	MOVQ AX, X10
	SHUFPS $0x00, X10, X10
	XORPS X9, X9

axblock32:
	MOVUPS (R8), X11
	AXBLOCK(0, X11)
	ADDQ $GROUP, DI
	ADDQ $GROUP, SI
	ADDQ $16, R8
	DECQ CX
	JNZ  axblock32
	RET

// TRANSPOSE32 transposes the 4x4 of X0-X3 (rows) into X6, X5, X7, X2.
#define TRANSPOSE32 \
	MOVAPS X0, X4; UNPCKLPS X1, X4; MOVAPS X2, X5; UNPCKLPS X3, X5; UNPCKHPS X1, X0; UNPCKHPS X3, X2; \
	MOVAPS X4, X6; MOVLHPS X5, X6; MOVHLPS X4, X5; MOVAPS X0, X7; MOVLHPS X2, X7; MOVHLPS X0, X2

// LOADT32 loads components 2jj and 2jj+1 of the block's four slices into
// planes 4jj to 4jj+3; STORET32 stores them back.
#define LOADT32(jj) \
	MOVUPS ((jj)*16)(R8), X0; MOVUPS ((jj)*16)(R9), X1; MOVUPS ((jj)*16)(R10), X2; MOVUPS ((jj)*16)(R11), X3; \
	TRANSPOSE32; \
	MOVUPS X6, ((jj)*64)(DI); MOVUPS X5, ((jj)*64+16)(DI); MOVUPS X7, ((jj)*64+32)(DI); MOVUPS X2, ((jj)*64+48)(DI)
#define STORET32(jj) \
	MOVUPS ((jj)*64)(DI), X0; MOVUPS ((jj)*64+16)(DI), X1; MOVUPS ((jj)*64+32)(DI), X2; MOVUPS ((jj)*64+48)(DI), X3; \
	TRANSPOSE32; \
	MOVUPS X6, ((jj)*16)(R8); MOVUPS X5, ((jj)*16)(R9); MOVUPS X7, ((jj)*16)(R10); MOVUPS X2, ((jj)*16)(R11)

TEXT ·loadSSE32(SB), NOSPLIT, $96-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ stride+16(FP), DX
	SHLQ $3, DX
	MOVQ ls+24(FP), CX
	TESTQ $3, CX
	JEQ   lblock32
	XORPS X0, X0
	MOVUPS X0, 0(SP); MOVUPS X0, 16(SP); MOVUPS X0, 32(SP)
	MOVUPS X0, 48(SP); MOVUPS X0, 64(SP); MOVUPS X0, 80(SP)

lblock32:
	SLICES

slicesDone:
	LOADT32(0); LOADT32(1); LOADT32(2); LOADT32(3); LOADT32(4); LOADT32(5)
	ADDQ $GROUP, DI
	LEAQ (SI)(DX*4), SI
	SUBQ $4, CX
	JGT  lblock32
	RET

TEXT ·storeSSE32(SB), NOSPLIT, $96-32
	MOVQ dst+0(FP), SI
	MOVQ src+8(FP), DI
	MOVQ stride+16(FP), DX
	SHLQ $3, DX
	MOVQ ls+24(FP), CX

sblock32:
	SLICES

slicesDone:
	STORET32(0); STORET32(1); STORET32(2); STORET32(3); STORET32(4); STORET32(5)
	ADDQ $GROUP, DI
	LEAQ (SI)(DX*4), SI
	SUBQ $4, CX
	JGT  sblock32
	RET

#undef ADDV
#undef SUBV
#undef MULV
#undef BCASTM
#undef PLANE
#undef GROUP
#undef CHIBLK
#undef ROTDN
#undef ROTUP

// The float64 bodies: a plane is two registers, lo (lanes 0, 1) and hi
// (lanes 2, 3). fibreAInv runs per register, as the hop does; the others
// per block. In fibreBA and fibreBAxpy X13/X12 are rep lo/hi, X11/X10 wt
// lo/hi and X9/X8 keep lo/hi; the rotations cross the two registers.
#define ADDV ADDPD
#define SUBV SUBPD
#define MULV MULPD
#define BCASTM(off, base, r) MOVSD off(base), r; SHUFPD $0x00, r, r
#define PLANE 32
#define GROUP 768
#define CHIBLK 144
// ROTDN sets X2, X3 to (x1, x0), (x1, x2) from X0 = (x0, x1), X1 = (x2,
// x3): each lane from slice s-1, lane 0 to be replaced. ROTUP sets them to
// (x1, x2), (x3, x0): each lane from s+1.
#define ROTDN MOVAPS X0, X2; SHUFPD $1, X2, X2; MOVAPS X0, X3; SHUFPD $1, X1, X3
#define ROTUP MOVAPS X0, X2; SHUFPD $1, X1, X2; MOVAPS X1, X3; SHUFPD $1, X0, X3

TEXT ·aInvSSE64(SB), NOSPLIT, $16-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ colP+16(FP), R8
	MOVQ colM+24(FP), R9
	MOVQ lane+32(FP), R10
	MOVQ ls+40(FP), CX
	LEAQ 3(CX), R11
	SHRQ $2, R11
	SHLQ $5, R11
	LEAQ 1(CX), DX
	SHRQ $1, DX
	MOVQ $16, 0(SP)
	MOVQ $(GROUP-16), 8(SP)
	XORPS X15, X15

agroup64:
	MOVQ R8, R12
	XORQ R13, R13

asector64:
	XORPS X0, X0; XORPS X1, X1; XORPS X2, X2; XORPS X3, X3
	XORPS X4, X4; XORPS X5, X5; XORPS X6, X6; XORPS X7, X7
	XORPS X8, X8; XORPS X9, X9; XORPS X10, X10; XORPS X11, X11
	XORQ BX, BX

aslice64:
	MOVUPS (R12), X12
	MOVAPS X12, X13
	CMPPD  X15, X13, $4
	MOVQ   (R10)(BX*8), AX
	LEAQ   (SI)(AX*8), AX
	ADDQ   R13, AX
	AACC(0, X0); AACC(1, X1); AACC(2, X2); AACC(3, X3)
	AACC(4, X4); AACC(5, X5); AACC(6, X6); AACC(7, X7)
	AACC(8, X8); AACC(9, X9); AACC(10, X10); AACC(11, X11)
	ADDQ R11, R12
	INCQ BX
	CMPQ BX, CX
	JLT  aslice64

	LEAQ (DI)(R13*1), AX
	MOVUPS X0, (0*PLANE)(AX); MOVUPS X1, (1*PLANE)(AX); MOVUPS X2, (2*PLANE)(AX); MOVUPS X3, (3*PLANE)(AX)
	MOVUPS X4, (4*PLANE)(AX); MOVUPS X5, (5*PLANE)(AX); MOVUPS X6, (6*PLANE)(AX); MOVUPS X7, (7*PLANE)(AX)
	MOVUPS X8, (8*PLANE)(AX); MOVUPS X9, (9*PLANE)(AX); MOVUPS X10, (10*PLANE)(AX); MOVUPS X11, (11*PLANE)(AX)
	TESTQ R13, R13
	JNE   anext64
	MOVQ  $(12*PLANE), R13
	MOVQ  R9, R12
	JMP   asector64

anext64:
	ADDQ $16, R8
	ADDQ $16, R9
	MOVQ 0(SP), AX
	ADDQ AX, DI
	MOVQ 8(SP), BX
	MOVQ BX, 0(SP)
	MOVQ AX, 8(SP)
	DECQ DX
	JNZ  agroup64
	RET

// BAV64 sets X0, X1 to B (or A) of the source plane at q; it uses X2-X6.
#define BAV64(q, ROT) \
	MOVUPS (q)(SI), X0; MOVUPS ((q)+16)(SI), X1; ROT; BCASTM(q, AX, X4); \
	MOVAPS X13, X5; ANDNPS X2, X5; MOVAPS X4, X6; ANDPS X13, X6; ORPS X6, X5; \
	MULPD X11, X5; MULPD X14, X5; MULPD X15, X0; ADDPD X5, X0; \
	MOVAPS X12, X5; ANDNPS X3, X5; ANDPS X12, X4; ORPS X4, X5; \
	MULPD X10, X5; MULPD X14, X5; MULPD X15, X1; ADDPD X5, X1

#define BASECTOR64(t, base, ROT, BODY) \
	MOVUPS ((t)*PLANE)(BX), X13; MOVUPS ((t)*PLANE+16)(BX), X12; \
	MOVUPS ((2+(t))*PLANE)(BX), X11; MOVUPS ((2+(t))*PLANE+16)(BX), X10; \
	MOVQ (4*PLANE+(t)*8)(BX), AX; LEAQ (SI)(AX*8), AX; \
	BODY((base)+0*PLANE, ROT); BODY((base)+2*PLANE, ROT); BODY((base)+4*PLANE, ROT); \
	BODY((base)+6*PLANE, ROT); BODY((base)+8*PLANE, ROT); BODY((base)+10*PLANE, ROT)

#define BAPAIR64(q, ROT) \
	BAV64(q, ROT); ANDPS X9, X0; ANDPS X8, X1; MOVUPS X0, (q)(DI); MOVUPS X1, ((q)+16)(DI); \
	BAV64((q)+PLANE, ROT); ANDPS X9, X0; ANDPS X8, X1; MOVUPS X0, ((q)+PLANE)(DI); MOVUPS X1, ((q)+PLANE+16)(DI)

// BXHALF is fibreBAxpy on register h of a component's planes at q, with
// the real part's B in ba(SP) and the imaginary part's in BI, the lanes of
// keep K; X7 is -1, X6 zero.
#define BXHALF(q, ba, BI, K) \
	MOVUPS (q)(DI), X2; MOVUPS ((q)+PLANE)(DI), X3; \
	MOVAPS X2, X4; MULPD X7, X4; MOVAPS X3, X5; MULPD X6, X5; SUBPD X5, X4; MOVUPS ba(SP), X5; ADDPD X5, X4; \
	ANDPS K, X4; MOVUPS X4, (q)(DI); \
	MULPD X7, X3; MULPD X6, X2; ADDPD X2, X3; ADDPD BI, X3; \
	ANDPS K, X3; MOVUPS X3, ((q)+PLANE)(DI)

#define BXPAIR64(q, ROT) \
	BAV64(q, ROT); MOVUPS X0, 0(SP); MOVUPS X1, 16(SP); \
	BAV64((q)+PLANE, ROT); XORPS X6, X6; \
	BXHALF(q, 0, X0, X9); BXHALF((q)+16, 16, X1, X8)

TEXT ·baSSE64(SB), NOSPLIT, $0-57
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ chi+16(FP), BX
	MOVQ keep+24(FP), R8
	MOVQ groups+32(FP), CX
	MOVSD w0+40(FP), X15
	SHUFPD $0x00, X15, X15
	MOVSD w1+48(FP), X14
	SHUFPD $0x00, X14, X14
	MOVBQZX dagger+56(FP), DX

bablock64:
	MOVUPS (R8), X9
	MOVUPS 16(R8), X8
	TESTQ  DX, DX
	JNE    badag64
	BASECTOR64(0, 0, ROTDN, BAPAIR64)
	BASECTOR64(1, 12*PLANE, ROTUP, BAPAIR64)
	JMP    banext64

badag64:
	BASECTOR64(1, 0, ROTUP, BAPAIR64)
	BASECTOR64(0, 12*PLANE, ROTDN, BAPAIR64)

banext64:
	ADDQ $GROUP, DI
	ADDQ $GROUP, SI
	ADDQ $CHIBLK, BX
	ADDQ $32, R8
	DECQ CX
	JNZ  bablock64
	RET

TEXT ·baxpySSE64(SB), NOSPLIT, $32-57
	MOVQ z+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ chi+16(FP), BX
	MOVQ keep+24(FP), R8
	MOVQ groups+32(FP), CX
	MOVSD w0+40(FP), X15
	SHUFPD $0x00, X15, X15
	MOVSD w1+48(FP), X14
	SHUFPD $0x00, X14, X14
	MOVBQZX dagger+56(FP), DX
	MOVQ $0xbff0000000000000, AX
	MOVQ AX, X7
	SHUFPD $0x00, X7, X7

bxblock64:
	MOVUPS (R8), X9
	MOVUPS 16(R8), X8
	TESTQ  DX, DX
	JNE    bxdag64
	BASECTOR64(0, 0, ROTDN, BXPAIR64)
	BASECTOR64(1, 12*PLANE, ROTUP, BXPAIR64)
	JMP    bxnext64

bxdag64:
	BASECTOR64(1, 0, ROTUP, BXPAIR64)
	BASECTOR64(0, 12*PLANE, ROTDN, BXPAIR64)

bxnext64:
	ADDQ $GROUP, DI
	ADDQ $GROUP, SI
	ADDQ $CHIBLK, BX
	ADDQ $32, R8
	DECQ CX
	JNZ  bxblock64
	RET

TEXT ·axpySSE64(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ keep+16(FP), R8
	MOVQ groups+24(FP), CX
	MOVQ $0xbff0000000000000, AX
	MOVQ AX, X10
	SHUFPD $0x00, X10, X10
	XORPS X9, X9

axblock64:
	MOVUPS (R8), X11
	MOVUPS 16(R8), X8
	AXBLOCK(0, X11)
	AXBLOCK(16, X8)
	ADDQ $GROUP, DI
	ADDQ $GROUP, SI
	ADDQ $32, R8
	DECQ CX
	JNZ  axblock64
	RET

// LOADT64 loads component j of the block's four slices into planes 2j and
// 2j+1; STORET64 stores it back.
#define LOADT64(j) \
	MOVUPS ((j)*16)(R8), X0; MOVUPS ((j)*16)(R9), X1; MOVUPS ((j)*16)(R10), X2; MOVUPS ((j)*16)(R11), X3; \
	MOVAPS X0, X4; UNPCKLPD X1, X4; UNPCKHPD X1, X0; MOVAPS X2, X5; UNPCKLPD X3, X5; UNPCKHPD X3, X2; \
	MOVUPS X4, ((j)*64)(DI); MOVUPS X5, ((j)*64+16)(DI); MOVUPS X0, ((j)*64+32)(DI); MOVUPS X2, ((j)*64+48)(DI)
#define STORET64(j) \
	MOVUPS ((j)*64)(DI), X0; MOVUPS ((j)*64+16)(DI), X1; MOVUPS ((j)*64+32)(DI), X2; MOVUPS ((j)*64+48)(DI), X3; \
	MOVAPS X0, X4; UNPCKLPD X2, X4; UNPCKHPD X2, X0; MOVAPS X1, X5; UNPCKLPD X3, X5; UNPCKHPD X3, X1; \
	MOVUPS X4, ((j)*16)(R8); MOVUPS X0, ((j)*16)(R9); MOVUPS X5, ((j)*16)(R10); MOVUPS X1, ((j)*16)(R11)

TEXT ·loadSSE64(SB), NOSPLIT, $192-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ stride+16(FP), DX
	SHLQ $4, DX
	MOVQ ls+24(FP), CX
	TESTQ $3, CX
	JEQ   lblock64
	XORPS X0, X0
	MOVUPS X0, 0(SP); MOVUPS X0, 16(SP); MOVUPS X0, 32(SP); MOVUPS X0, 48(SP)
	MOVUPS X0, 64(SP); MOVUPS X0, 80(SP); MOVUPS X0, 96(SP); MOVUPS X0, 112(SP)
	MOVUPS X0, 128(SP); MOVUPS X0, 144(SP); MOVUPS X0, 160(SP); MOVUPS X0, 176(SP)

lblock64:
	SLICES

slicesDone:
	LOADT64(0); LOADT64(1); LOADT64(2); LOADT64(3); LOADT64(4); LOADT64(5)
	LOADT64(6); LOADT64(7); LOADT64(8); LOADT64(9); LOADT64(10); LOADT64(11)
	ADDQ $GROUP, DI
	LEAQ (SI)(DX*4), SI
	SUBQ $4, CX
	JGT  lblock64
	RET

TEXT ·storeSSE64(SB), NOSPLIT, $192-32
	MOVQ dst+0(FP), SI
	MOVQ src+8(FP), DI
	MOVQ stride+16(FP), DX
	SHLQ $4, DX
	MOVQ ls+24(FP), CX

sblock64:
	SLICES

slicesDone:
	STORET64(0); STORET64(1); STORET64(2); STORET64(3); STORET64(4); STORET64(5)
	STORET64(6); STORET64(7); STORET64(8); STORET64(9); STORET64(10); STORET64(11)
	ADDQ $GROUP, DI
	LEAQ (SI)(DX*4), SI
	SUBQ $4, CX
	JGT  sblock64
	RET
