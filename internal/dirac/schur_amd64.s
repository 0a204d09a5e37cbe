#include "textflag.h"

// The Schur kernel's site passes on the lane-major layout (schur.go,
// DESIGN.md s19) in VEX-encoded AVX, one macro set for both precisions: a
// plane is one YMM register. For float64 that is four doubles, one
// fifth-dimension slice a lane, so a register group is one block of the
// layout. For float32 it is the pair layout's eight floats (pair.go), two
// systems' blocks side by side, system A's four slices in the low 128-bit
// half and system B's in the high half; a lone system runs as both halves.
// hopAVX32x2 and hopAVX64 are fibreHop for one site, every lane of its
// fibre; aInv*, ba*, baxpy*, load* and store* are fibreAInv, fibreBA,
// fibreBAxpy and the transposes to and from a caller's field. The build
// links them on every amd64 host, but schur_amd64.go selects them only
// where linalg.HasAVX - the start-up probe of the host's AVX and of the OS
// saving YMM state - holds; elsewhere every pass runs its portable Go body.
//
// The rules hold for every body. Every arithmetic instruction is a packed
// MUL, ADD or SUB with no fused multiply-add, each lane issuing its
// slice's scalar operations in the Go body's order; the rest is data
// movement (loads, stores, broadcasts, shuffles) and bit masks (AND, ANDN,
// OR, XOR, compare), which change no value they let through. In the pair
// layout every instruction but the loads and stores of system B's rows
// acts within each 128-bit half (the link entries and weights are
// broadcast to all eight lanes, the shuffles are in-lane), so each half
// computes what its system alone would. A body that writes a Y register
// leaves its upper halves dirty, and the next legacy SSE instruction (Go's
// own float code at GOAMD64=v1) would pay a state transition of about 500
// cycles; so no body uses a legacy SSE instruction, and each issues
// VZEROUPPER before every RET (TestAssemblyDiscipline reads this file and
// holds it to both).
//
// The hop's loop nest is register-blocked. Per block and per output colour
// row r, the row's eight planes - components r, 3+r, 6+r and 9+r, real and
// imaginary - stay in registers across all eight directions and are
// stored once; nothing else goes through memory. Each direction projects
// the neighbour's components straight from memory operands, multiplies the
// projection by the link's row r (mul) or column r (mulAdj) broadcast, and
// reconstructs into the eight accumulators. An output element therefore
// takes exactly the Go body's operations - halfSpinor.project, mul or
// mulAdj, reconstruct, then the g5 negation - in direction order, and
// comes out the same to the bit; only the order in which elements are
// visited differs. The projection is formed again for each of the three
// rows, which costs less than a round trip through the stack.
//
// func hopAVX32x2(dst, src *float32, hops *lattice.Hop, u *[4][]link[float32], keep *float32, ls int, g5 bool)
// func hopAVX64(dst, src *float64, hops *lattice.Hop, u *[4][]link[float64], keep *float64, ls int, g5 bool)
//
// Registers: DI the output row (the block's output at row r's real plane of
// component r), R12 the block's byte offset into a fibre, R13 and R14 row
// r's offset into a link for mul and for mulAdj, R11 the block's lanes of
// keep, CX the blocks left, AX the neighbour's block, R10 the link at the
// row. The stack holds each direction d's neighbour fibre at 8*d and its
// link at 64+8*d. Vector registers: U0R-L3I the row's accumulators (spins
// 0-3 at colour r), WR/WI the transported colour, HR/HI a projected
// component, BR/BI a link entry broadcast, T0/T1 products.

// SETUP stores direction d's neighbour fibre and link: BX the site's
// stencil entries, SI the input field, R8 the link slices, R9 the fibre
// size in bytes.
#define SETUP(d) \
	MOVLQSX ((d)*8)(BX), AX; IMULQ R9, AX; ADDQ SI, AX; MOVQ AX, ((d)*8)(SP); \
	MOVLQSX ((d)*8+4)(BX), AX; IMUL3Q $LINK, AX, AX; ADDQ (((d)/2)*24)(R8), AX; MOVQ AX, (64+(d)*8)(SP)

// NB points AX at direction d's neighbour block and R10 at its link's row,
// ROW being R13 (mul) or R14 (mulAdj).
#define NB(d, ROW) \
	MOVQ ((d)*8)(SP), AX; ADDQ R12, AX; MOVQ (64+(d)*8)(SP), R10; ADDQ ROW, R10

// PJ sets HR, HI to the projection of neighbour components a and b: a.re
// ore b[bre] and a.im oim b[bim], b read as a memory operand.
#define PJ(a, b, ore, bre, oim, bim) \
	VMOVUV ((a)*2*PLANE)(AX), HR; ore ((b)*2*PLANE+(bre))(AX), HR, HR; \
	VMOVUV ((a)*2*PLANE+PLANE)(AX), HI; oim ((b)*2*PLANE+(bim))(AX), HI, HI

// The four projections of a pair: a + b, a - b, a + i b, a - i b.
#define PADD(a, b) PJ(a, b, VADDV, 0, VADDV, PLANE)
#define PSUB(a, b) PJ(a, b, VSUBV, 0, VSUBV, PLANE)
#define PADDI(a, b) PJ(a, b, VSUBV, PLANE, VADDV, 0)
#define PSUBI(a, b) PJ(a, b, VADDV, PLANE, VSUBV, 0)

// BC broadcasts the link entry at off from the row into BR (real part) and
// BI (imaginary part).
#define BC(off) VBCAST ((off))(R10), BR; VBCAST ((off)+IMAG)(R10), BI

// T1ST sets WR, WI to the entry at off times the projection in HR, HI:
// cx.times with ore SUB and oim ADD, cx.conjTimes with ore ADD and oim SUB.
// TNXT adds the next such product, the sum running left to right.
#define T1ST(off, ore, oim) \
	BC(off); \
	VMULV HR, BR, WR; VMULV HI, BI, T0; ore T0, WR, WR; \
	VMULV HI, BR, WI; VMULV HR, BI, T0; oim T0, WI, WI
#define TNXT(off, ore, oim) \
	BC(off); \
	VMULV HR, BR, T0; VMULV HI, BI, T1; ore T1, T0, T0; VADDV T0, WR, WR; \
	VMULV HI, BR, T0; VMULV HR, BI, T1; oim T1, T0, T0; VADDV T0, WI, WI

// W sets WR, WI to one transported colour of the row: the row's three
// entries, US apart, times the projections P of components a0..a0+2
// against b0..b0+2, summed and halved.
#define W(P, a0, b0, US, ore, oim) \
	P(a0, b0); T1ST(0, ore, oim); \
	P((a0)+1, (b0)+1); TNXT(US, ore, oim); \
	P((a0)+2, (b0)+2); TNXT(2*(US), ore, oim); \
	VMULV HALF, WR, WR; VMULV HALF, WI, WI

// MULW is W for halfSpinor.mul (row r of U), ADJW for mulAdj (column r).
#define MULW(P, a0, b0) W(P, a0, b0, ENTRY, VSUBV, VADDV)
#define ADJW(P, a0, b0) W(P, a0, b0, 3*ENTRY, VADDV, VSUBV)

// The four reconstructions of an accumulator pair: o + w, o - w, o + i w,
// o - i w.
#define RADD(re, im) VADDV WR, re, re; VADDV WI, im, im
#define RSUB(re, im) VSUBV WR, re, re; VSUBV WI, im, im
#define RADDI(re, im) VSUBV WI, re, re; VADDV WR, im, im
#define RSUBI(re, im) VADDV WI, re, re; VSUBV WR, im, im

// DIRLO is hop direction d for x and y (d < 4), DIRHI for z and t: the
// colours 0-2 of the half spinor (projection P0, from spin 0 against spin 3
// or 2) subtract from spin 0 and reconstruct by R0 into spin 3 or 2; the
// colours 3-5 (P1, spin 1 against spin 2 or 3) subtract from spin 1 and
// reconstruct by R1 into the other lower spin.
#define DIRLO(d, ROW, WM, P0, R0, P1, R1) \
	NB(d, ROW); \
	WM(P0, 0, 9); RSUB(U0R, U0I); R0(L3R, L3I); \
	WM(P1, 3, 6); RSUB(U1R, U1I); R1(L2R, L2I)
#define DIRHI(d, ROW, WM, P0, R0, P1, R1) \
	NB(d, ROW); \
	WM(P0, 0, 6); RSUB(U0R, U0I); R0(L2R, L2I); \
	WM(P1, 3, 9); RSUB(U1R, U1I); R1(L3R, L3I)

// HOPS is the eight directions: halfSpinor.project for direction d, mul
// (even d) or mulAdj (odd d), reconstruct for d.
#define HOPS \
	DIRLO(0, R13, MULW, PSUBI, RSUBI, PSUBI, RSUBI); \
	DIRLO(1, R14, ADJW, PADDI, RADDI, PADDI, RADDI); \
	DIRLO(2, R13, MULW, PADD, RSUB, PSUB, RADD); \
	DIRLO(3, R14, ADJW, PSUB, RADD, PADD, RSUB); \
	DIRHI(4, R13, MULW, PSUBI, RSUBI, PADDI, RADDI); \
	DIRHI(5, R14, ADJW, PADDI, RADDI, PSUBI, RSUBI); \
	DIRHI(6, R13, MULW, PSUB, RADD, PSUB, RADD); \
	DIRHI(7, R14, ADJW, PADD, RSUB, PADD, RSUB)

// HOPSG5 is gamma_5 Hop's directions: the projection of d^1, the rest of d.
#define HOPSG5 \
	DIRLO(0, R13, MULW, PADDI, RSUBI, PADDI, RSUBI); \
	DIRLO(1, R14, ADJW, PSUBI, RADDI, PSUBI, RADDI); \
	DIRLO(2, R13, MULW, PSUB, RSUB, PADD, RADD); \
	DIRLO(3, R14, ADJW, PADD, RADD, PSUB, RSUB); \
	DIRHI(4, R13, MULW, PADDI, RSUBI, PSUBI, RADDI); \
	DIRHI(5, R14, ADJW, PSUBI, RADDI, PADDI, RSUBI); \
	DIRHI(6, R13, MULW, PADD, RADD, PADD, RADD); \
	DIRHI(7, R14, ADJW, PSUB, RSUB, PSUB, RSUB)

// ZEROROW starts the row's accumulators at +0.
#define ZEROROW \
	VXORV U0R, U0R, U0R; VXORV U0I, U0I, U0I; VXORV U1R, U1R, U1R; VXORV U1I, U1I, U1I; \
	VXORV L2R, L2R, L2R; VXORV L2I, L2I, L2I; VXORV L3R, L3R, L3R; VXORV L3I, L3I, L3I

// NEGLOWER is the output gamma_5 on the row's lower spins: a sign flip
// ANDed with keep, so that a padding lane stays +0.
#define NEGLOWER \
	VMOVUV (R11), T0; VANDV SIGN, T0, T0; \
	VXORV T0, L2R, L2R; VXORV T0, L2I, L2I; VXORV T0, L3R, L3R; VXORV T0, L3I, L3I

// STOREROW stores the row: components r, 3+r, 6+r, 9+r.
#define STOREROW \
	VMOVUV U0R, (0*PLANE)(DI); VMOVUV U0I, (1*PLANE)(DI); \
	VMOVUV U1R, (6*PLANE)(DI); VMOVUV U1I, (7*PLANE)(DI); \
	VMOVUV L2R, (12*PLANE)(DI); VMOVUV L2I, (13*PLANE)(DI); \
	VMOVUV L3R, (18*PLANE)(DI); VMOVUV L3I, (19*PLANE)(DI)

// NEXTROW steps DI, R13 and R14 to row r+1 and sets the flags for the last
// row; NEXTBLOCK steps to the next block and counts it.
#define NEXTROW \
	ADDQ $(2*PLANE), DI; ADDQ $(3*ENTRY), R13; ADDQ $ENTRY, R14; CMPQ R14, $(3*ENTRY)
#define NEXTBLOCK \
	ADDQ $(GROUP-6*PLANE), DI; ADDQ $GROUP, R12; ADDQ $PLANE, R11; DECQ CX

// PROLOGUE loads the arguments, stores the eight directions' neighbours
// and links, and leaves the g5 flag in DX.
#define PROLOGUE \
	MOVQ dst+0(FP), DI; MOVQ src+8(FP), SI; MOVQ hops+16(FP), BX; MOVQ u+24(FP), R8; \
	MOVQ keep+32(FP), R11; MOVQ ls+40(FP), CX; MOVBQZX g5+48(FP), DX; \
	ADDQ $3, CX; SHRQ $2, CX; IMUL3Q $GROUP, CX, R9; \
	SETUP(0); SETUP(1); SETUP(2); SETUP(3); SETUP(4); SETUP(5); SETUP(6); SETUP(7); \
	XORQ R12, R12

// HOP is a hop body: the plain and the g5 loop nest, chosen once per call.
#define HOP \
	PROLOGUE; TESTQ DX, DX; JNE g5block; \
plainblock:; \
	XORQ R13, R13; XORQ R14, R14; \
plainrow:; \
	ZEROROW; HOPS; STOREROW; NEXTROW; JNE plainrow; NEXTBLOCK; JNZ plainblock; \
	VZEROUPPER; RET; \
g5block:; \
	XORQ R13, R13; XORQ R14, R14; \
g5row:; \
	ZEROROW; HOPSG5; NEGLOWER; STOREROW; NEXTROW; JNE g5row; NEXTBLOCK; JNZ g5block; \
	VZEROUPPER; RET

// The fifth-dimension passes. Where a body computes a padding lane it ANDs
// it back to +0 (keep: all bits set in a real lane, zero in a padding
// one), so every padding lane of the scratch stays +0 (DESIGN.md s19).
//
// func aInvAVX32x2(dst, src, colP, colM *float32, ls int)
// func aInvAVX64(dst, src, colP, colM *float64, ls int)
//
// fibreAInv: per block of the output and per sector (planes 0-11 from
// colP, 12-23 from colM), twelve accumulators start at +0 and take, in sIn
// order, the input slice broadcast times the padded column, ANDed with the
// column's non-zero mask. Where the Go body adds w*v for a non-zero weight
// this adds the same product; where it skips a zero weight this adds +0,
// and an accumulator that starts at +0 is never -0 (a sum that is zero
// rounds to +0), so adding +0 leaves it as it was, NaN included - and a
// zero weight never multiplies an infinity into a NaN that reaches the
// sum. The padding lanes' columns are zero: they add only +0 and stay +0.
// The slice loop runs the four lanes of an input block as four copies,
// each broadcasting its lane (LANEB).
//
// Registers: DI the output block, SI the input fibre, R8/R9 the columns of
// P+/P- at the output block, R11 the column stride, DX the blocks left,
// R12 the column of the slice, R13 the sector's plane offset, AX the input
// slice's block, BX the slices left. Y0-Y11 accumulate, Y12 is the column,
// Y13 its mask, Y14 the input, Y15 zero.

// AACC adds plane q of the input slice in lane l of the block at AX, times
// the column and ANDed with its mask, to acc.
#define AACC(q, l, acc) LANEB(q, l); VMULV Y12, Y14, Y14; VANDV Y13, Y14, Y14; VADDV Y14, acc, acc

// ASLICE is the input slice in lane l: its column and mask, then its
// twelve planes.
#define ASLICE(l) \
	VMOVUV (R12), Y12; VCMPV $4, Y15, Y12, Y13; \
	AACC(0, l, Y0); AACC(1, l, Y1); AACC(2, l, Y2); AACC(3, l, Y3); \
	AACC(4, l, Y4); AACC(5, l, Y5); AACC(6, l, Y6); AACC(7, l, Y7); \
	AACC(8, l, Y8); AACC(9, l, Y9); AACC(10, l, Y10); AACC(11, l, Y11); \
	ADDQ R11, R12

// AZERO starts the sector's accumulators at +0; ASTORE stores them at AX.
#define AZERO \
	VXORV Y0, Y0, Y0; VXORV Y1, Y1, Y1; VXORV Y2, Y2, Y2; VXORV Y3, Y3, Y3; \
	VXORV Y4, Y4, Y4; VXORV Y5, Y5, Y5; VXORV Y6, Y6, Y6; VXORV Y7, Y7, Y7; \
	VXORV Y8, Y8, Y8; VXORV Y9, Y9, Y9; VXORV Y10, Y10, Y10; VXORV Y11, Y11, Y11
#define ASTORE \
	VMOVUV Y0, (0*PLANE)(AX); VMOVUV Y1, (1*PLANE)(AX); VMOVUV Y2, (2*PLANE)(AX); VMOVUV Y3, (3*PLANE)(AX); \
	VMOVUV Y4, (4*PLANE)(AX); VMOVUV Y5, (5*PLANE)(AX); VMOVUV Y6, (6*PLANE)(AX); VMOVUV Y7, (7*PLANE)(AX); \
	VMOVUV Y8, (8*PLANE)(AX); VMOVUV Y9, (9*PLANE)(AX); VMOVUV Y10, (10*PLANE)(AX); VMOVUV Y11, (11*PLANE)(AX)

// AINV is fibreAInv's body: per output block, the two sectors, each
// over every input slice.
#define AINV \
	MOVQ dst+0(FP), DI; MOVQ src+8(FP), SI; MOVQ colP+16(FP), R8; MOVQ colM+24(FP), R9; \
	MOVQ ls+32(FP), CX; LEAQ 3(CX), DX; SHRQ $2, DX; MOVQ DX, R11; SHLQ $5, R11; \
	VXORV Y15, Y15, Y15; \
group:; \
	MOVQ R8, R12; XORQ R13, R13; \
sector:; \
	AZERO; LEAQ (SI)(R13*1), AX; MOVQ CX, BX; \
slice:; \
	ASLICE(0); DECQ BX; JZ done; \
	ASLICE(1); DECQ BX; JZ done; \
	ASLICE(2); DECQ BX; JZ done; \
	ASLICE(3); ADDQ $GROUP, AX; DECQ BX; JNZ slice; \
done:; \
	LEAQ (DI)(R13*1), AX; ASTORE; \
	TESTQ R13, R13; JNE next; MOVQ $(12*PLANE), R13; MOVQ R9, R12; JMP sector; \
next:; \
	ADDQ $PLANE, R8; ADDQ $PLANE, R9; ADDQ $GROUP, DI; DECQ DX; JNZ group; \
	VZEROUPPER; RET

// fibreBA and fibreBAxpy: chi is a fixed rotation of a block's lanes
// (ROTDN, each lane from slice s-1; ROTUP, from s+1) with the one lane
// whose neighbour lies across the block edge or the chiral wrap - rep of
// the block's chi table - replaced by that neighbour broadcast (NBR); then
// wt, 1 in the bulk and -m at the wrap, multiplies it as the Go body
// multiplies by pw or mw (1*x is x, to the bit). The rotation reads only
// the block's own lanes and the broadcast a real slice of the fibre, and a
// real lane never takes a padding lane: every lane is w0*x + w1*(wt*chi
// x), the Go body's order, and ANDed with keep. fibreBAxpy then forms the
// complex product by (-1, 0) of the output's own planes as gc compiles the
// Go body's, (-re - 0*im, -im + 0*re) with the product by -1 a sign flip,
// and adds B or A to it.
//
// func baAVX32x2(dst, src *float32, chi *chiPair[float32], keep *float32, groups int, w0, w1 float32, dagger bool)
// func baxpyAVX32x2(z, y *float32, chi *chiPair[float32], keep *float32, groups int, w0, w1 float32, dagger bool)
// func baAVX64(dst, src *float64, chi *chiBlock[float64], keep *float64, groups int, w0, w1 float64, dagger bool)
// func baxpyAVX64(z, y *float64, chi *chiBlock[float64], keep *float64, groups int, w0, w1 float64, dagger bool)
//
// Registers: DI the output block, SI the input block, BX its chi table, R8
// its keep, CX the blocks left, DX the dagger flag (chi^dagger swaps the
// shifts of the two sectors), AX the broadcast slice's block. Y15 is w0,
// Y14 w1, Y13 the sector's rep, Y12 its wt, Y11 keep, Y10 the sign mask
// and Y9 zero (fibreBAxpy), Y8 the pair's lane control (chiPair.perm).

// BAV sets R to B (or A) of the source plane at q; it uses Y1-Y3.
#define BAV(q, R, ROT) \
	VMOVUV (q)(SI), R; ROT(R); VANDNV Y1, Y13, Y2; \
	NBR(q); VANDV Y13, Y3, Y3; VORV Y3, Y2, Y2; \
	VMULV Y12, Y2, Y2; VMULV Y14, Y2, Y2; VMULV Y15, R, R; VADDV Y2, R, R

// BASECTOR loads shift t's tables and runs BODY on the sector's twelve
// planes from plane offset base.
#define BASECTOR(t, base, ROT, BODY) \
	CHITAB(t); \
	BODY((base)+0*PLANE, ROT); BODY((base)+2*PLANE, ROT); BODY((base)+4*PLANE, ROT); \
	BODY((base)+6*PLANE, ROT); BODY((base)+8*PLANE, ROT); BODY((base)+10*PLANE, ROT)

// BAPAIR is fibreBA on the real and imaginary planes of a component.
#define BAPAIR(q, ROT) \
	BAV(q, Y0, ROT); VANDV Y11, Y0, Y0; VMOVUV Y0, (q)(DI); \
	BAV((q)+PLANE, Y0, ROT); VANDV Y11, Y0, Y0; VMOVUV Y0, ((q)+PLANE)(DI)

// BXPAIR is fibreBAxpy on them.
#define BXPAIR(q, ROT) \
	BAV(q, Y4, ROT); BAV((q)+PLANE, Y5, ROT); \
	VMOVUV (q)(DI), Y6; VMOVUV ((q)+PLANE)(DI), Y7; \
	VXORV Y10, Y6, Y0; VMULV Y9, Y7, Y1; VSUBV Y1, Y0, Y0; VADDV Y4, Y0, Y0; \
	VANDV Y11, Y0, Y0; VMOVUV Y0, (q)(DI); \
	VXORV Y10, Y7, Y7; VMULV Y9, Y6, Y6; VADDV Y6, Y7, Y7; VADDV Y5, Y7, Y7; \
	VANDV Y11, Y7, Y7; VMOVUV Y7, ((q)+PLANE)(DI)

// BA is fibreBA's or fibreBAxpy's block loop after the arguments, BODY
// BAPAIR or BXPAIR: the shifts of the two sectors, swapped for the dagger.
#define BA(BODY) \
block:; \
	VMOVUV (R8), Y11; TESTQ DX, DX; JNE dag; \
	BASECTOR(0, 0, ROTDN, BODY); BASECTOR(1, 12*PLANE, ROTUP, BODY); JMP next; \
dag:; \
	BASECTOR(1, 0, ROTUP, BODY); BASECTOR(0, 12*PLANE, ROTDN, BODY); \
next:; \
	ADDQ $GROUP, DI; ADDQ $GROUP, SI; ADDQ $CHIBLK, BX; ADDQ $PLANE, R8; DECQ CX; JNZ block; \
	VZEROUPPER; RET

DATA half32<>+0(SB)/8, $0x3f0000003f000000
DATA half32<>+8(SB)/8, $0x3f0000003f000000
DATA half32<>+16(SB)/8, $0x3f0000003f000000
DATA half32<>+24(SB)/8, $0x3f0000003f000000
GLOBL half32<>(SB), RODATA|NOPTR, $32

DATA sign32<>+0(SB)/8, $0x8000000080000000
DATA sign32<>+8(SB)/8, $0x8000000080000000
DATA sign32<>+16(SB)/8, $0x8000000080000000
DATA sign32<>+24(SB)/8, $0x8000000080000000
GLOBL sign32<>(SB), RODATA|NOPTR, $32

DATA half64<>+0(SB)/8, $0x3fe0000000000000
DATA half64<>+8(SB)/8, $0x3fe0000000000000
DATA half64<>+16(SB)/8, $0x3fe0000000000000
DATA half64<>+24(SB)/8, $0x3fe0000000000000
GLOBL half64<>(SB), RODATA|NOPTR, $32

DATA sign64<>+0(SB)/8, $0x8000000000000000
DATA sign64<>+8(SB)/8, $0x8000000000000000
DATA sign64<>+16(SB)/8, $0x8000000000000000
DATA sign64<>+24(SB)/8, $0x8000000000000000
GLOBL sign64<>(SB), RODATA|NOPTR, $32

// Both precisions: a plane is one YMM register of 32 bytes and a block 24
// of them, and the hop's sixteen registers are the Y registers.
#define PLANE 32
#define GROUP 768
#define U0R Y0
#define U0I Y1
#define U1R Y2
#define U1I Y3
#define L2R Y4
#define L2I Y5
#define L3R Y6
#define L3I Y7
#define WR Y8
#define WI Y9
#define HR Y10
#define HI Y11
#define BR Y12
#define BI Y13
#define T0 Y14
#define T1 Y15

// The float32 pair bodies: a plane is eight floats, system A's four slices
// of the block and then system B's. fibreAInv broadcasts an input lane
// within each half by VPERMILPS with an immediate; chi rotates within each
// half by VPERMILPS too, and moves the rep lane's source slice across each
// half by the chiPair block's control (perm), the source block at its
// offset (pos). The tables - keep, chi, the padded columns - are the
// single layout's with each block repeated in both halves (pairOp).
#define VMOVUV VMOVUPS
#define VADDV VADDPS
#define VSUBV VSUBPS
#define VMULV VMULPS
#define VXORV VXORPS
#define VANDV VANDPS
#define VANDNV VANDNPS
#define VORV VORPS
#define VCMPV VCMPPS
#define VBCAST VBROADCASTSS
#define HALF half32<>(SB)
#define SIGN sign32<>(SB)
#define ENTRY 8
#define IMAG 4
#define LINK 72
#define LANEB(q, l) VPERMILPS $((l)*0x55), ((q)*PLANE)(AX), Y14
#define ROTDN(R) VPERMILPS $0x93, R, Y1
#define ROTUP(R) VPERMILPS $0x39, R, Y1
#define NBR(q) VMOVUPS (q)(AX), Y3; VPERMILPS Y8, Y3, Y3
#define CHITAB(t) \
	VMOVUPS ((t)*32)(BX), Y13; VMOVUPS (64+(t)*32)(BX), Y12; VMOVUPS (128+(t)*32)(BX), Y8; \
	MOVQ (192+(t)*8)(BX), AX; LEAQ (SI)(AX*4), AX
#define CHIBLK 208

TEXT ·hopAVX32x2(SB), NOSPLIT, $128-49
	HOP

TEXT ·aInvAVX32x2(SB), NOSPLIT, $0-40
	AINV

TEXT ·baAVX32x2(SB), NOSPLIT, $0-49
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    chi+16(FP), BX
	MOVQ    keep+24(FP), R8
	MOVQ    groups+32(FP), CX
	VBCAST  w0+40(FP), Y15
	VBCAST  w1+44(FP), Y14
	MOVBQZX dagger+48(FP), DX
	BA(BAPAIR)

TEXT ·baxpyAVX32x2(SB), NOSPLIT, $0-49
	MOVQ    z+0(FP), DI
	MOVQ    y+8(FP), SI
	MOVQ    chi+16(FP), BX
	MOVQ    keep+24(FP), R8
	MOVQ    groups+32(FP), CX
	VBCAST  w0+40(FP), Y15
	VBCAST  w1+44(FP), Y14
	MOVBQZX dagger+48(FP), DX
	VMOVUV  SIGN, Y10
	VXORV   Y9, Y9, Y9
	BA(BXPAIR)

// load and store transpose between a caller's field, where slice s of the
// site starts stride complex numbers after slice s-1, and a block of
// planes. Only real slices are read or written: a padding slice reads a
// zeroed spinor on the stack (load) or writes one there (store). Moves do
// not round, so every bit goes through, NaN payloads included.
//
// func loadAVX32x2(dst, a, b *float32, stride, ls int)
// func storeAVX32x2(a, b, src *float32, stride, ls int)
//
// Four slices of each system are rows of (re, im, re, im), system B's
// through the upper halves (VINSERTF128, VEXTRACTF128), and a 4x4
// transpose in each half makes them planes. Registers: DI the pair fibre's
// block, SI and BX systems A's and B's fields at the block's first slice,
// DX the stride in bytes, CX the slices left, R8-R11 system A's four
// slices and R12, R13, R14, AX system B's (or the stack spinor).

// PSLICES points R8-R11 and R12-R14, AX at the block's slices.
#define PSLICES \
	MOVQ SI, R8; MOVQ BX, R12; LEAQ 0(SP), R9; MOVQ R9, R10; MOVQ R9, R11; MOVQ R9, R13; MOVQ R9, R14; MOVQ R9, AX; \
	CMPQ CX, $2; JLT slicesDone; LEAQ (SI)(DX*1), R9; LEAQ (BX)(DX*1), R13; \
	CMPQ CX, $3; JLT slicesDone; LEAQ (SI)(DX*2), R10; LEAQ (BX)(DX*2), R14; \
	CMPQ CX, $4; JLT slicesDone; LEAQ (R10)(DX*1), R11; LEAQ (R14)(DX*1), AX

// PTRANSPOSE transposes the 4x4 in each half: rows Y0-Y3 into planes
// Y0-Y3.
#define PTRANSPOSE \
	VUNPCKLPS Y1, Y0, Y4; VUNPCKLPS Y3, Y2, Y5; VUNPCKHPS Y1, Y0, Y6; VUNPCKHPS Y3, Y2, Y7; \
	VSHUFPS $0x44, Y5, Y4, Y0; VSHUFPS $0xee, Y5, Y4, Y1; VSHUFPS $0x44, Y7, Y6, Y2; VSHUFPS $0xee, Y7, Y6, Y3

// PLOADT loads components 2jj and 2jj+1 of both systems' four slices into
// planes 4jj to 4jj+3; PSTORET stores them back.
#define PLOADT(jj) \
	VMOVUPS ((jj)*16)(R8), X0; VINSERTF128 $1, ((jj)*16)(R12), Y0, Y0; \
	VMOVUPS ((jj)*16)(R9), X1; VINSERTF128 $1, ((jj)*16)(R13), Y1, Y1; \
	VMOVUPS ((jj)*16)(R10), X2; VINSERTF128 $1, ((jj)*16)(R14), Y2, Y2; \
	VMOVUPS ((jj)*16)(R11), X3; VINSERTF128 $1, ((jj)*16)(AX), Y3, Y3; \
	PTRANSPOSE; \
	VMOVUPS Y0, ((jj)*128)(DI); VMOVUPS Y1, ((jj)*128+32)(DI); VMOVUPS Y2, ((jj)*128+64)(DI); VMOVUPS Y3, ((jj)*128+96)(DI)
#define PSTORET(jj) \
	VMOVUPS ((jj)*128)(DI), Y0; VMOVUPS ((jj)*128+32)(DI), Y1; VMOVUPS ((jj)*128+64)(DI), Y2; VMOVUPS ((jj)*128+96)(DI), Y3; \
	PTRANSPOSE; \
	VMOVUPS X0, ((jj)*16)(R8); VEXTRACTF128 $1, Y0, ((jj)*16)(R12); \
	VMOVUPS X1, ((jj)*16)(R9); VEXTRACTF128 $1, Y1, ((jj)*16)(R13); \
	VMOVUPS X2, ((jj)*16)(R10); VEXTRACTF128 $1, Y2, ((jj)*16)(R14); \
	VMOVUPS X3, ((jj)*16)(R11); VEXTRACTF128 $1, Y3, ((jj)*16)(AX)

TEXT ·loadAVX32x2(SB), NOSPLIT, $96-40
	MOVQ  dst+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), BX
	MOVQ  stride+24(FP), DX
	SHLQ  $3, DX
	MOVQ  ls+32(FP), CX
	TESTQ $3, CX
	JEQ   block
	VXORPS  Y0, Y0, Y0
	VMOVUPS Y0, 0(SP); VMOVUPS Y0, 32(SP); VMOVUPS Y0, 64(SP)

block:
	PSLICES

slicesDone:
	PLOADT(0); PLOADT(1); PLOADT(2); PLOADT(3); PLOADT(4); PLOADT(5)
	ADDQ $GROUP, DI
	LEAQ (SI)(DX*4), SI
	LEAQ (BX)(DX*4), BX
	SUBQ $4, CX
	JGT  block
	VZEROUPPER
	RET

TEXT ·storeAVX32x2(SB), NOSPLIT, $96-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), BX
	MOVQ src+16(FP), DI
	MOVQ stride+24(FP), DX
	SHLQ $3, DX
	MOVQ ls+32(FP), CX

block:
	PSLICES

slicesDone:
	PSTORET(0); PSTORET(1); PSTORET(2); PSTORET(3); PSTORET(4); PSTORET(5)
	ADDQ $GROUP, DI
	LEAQ (SI)(DX*4), SI
	LEAQ (BX)(DX*4), BX
	SUBQ $4, CX
	JGT  block
	VZEROUPPER
	RET

#undef VMOVUV
#undef VADDV
#undef VSUBV
#undef VMULV
#undef VXORV
#undef VANDV
#undef VANDNV
#undef VORV
#undef VCMPV
#undef VBCAST
#undef HALF
#undef SIGN
#undef ENTRY
#undef IMAG
#undef LINK
#undef LANEB
#undef ROTDN
#undef ROTUP
#undef NBR
#undef CHITAB
#undef CHIBLK

// The float64 bodies: a plane is four doubles. fibreAInv broadcasts an
// input lane by VBROADCASTSD from memory. chi's rotations cross the two
// 128-bit halves, by the AVX moves VPERM2F128 (the halves swapped) and
// VSHUFPD (each lane from the plane or its swapped copy): ROTDN makes
// (x3, x0, x1, x2) of (x0, x1, x2, x3), each lane from slice s-1, and
// ROTUP (x1, x2, x3, x0), each from s+1. The rep lane's source slice is a
// VBROADCASTSD at the chiBlock's offset (src).
#define VMOVUV VMOVUPD
#define VADDV VADDPD
#define VSUBV VSUBPD
#define VMULV VMULPD
#define VXORV VXORPD
#define VANDV VANDPD
#define VANDNV VANDNPD
#define VORV VORPD
#define VCMPV VCMPPD
#define VBCAST VBROADCASTSD
#define HALF half64<>(SB)
#define SIGN sign64<>(SB)
#define ENTRY 16
#define IMAG 8
#define LINK 144
#define LANEB(q, l) VBROADCASTSD ((q)*PLANE+(l)*8)(AX), Y14
#define ROTDN(R) VPERM2F128 $1, R, R, Y1; VSHUFPD $5, R, Y1, Y1
#define ROTUP(R) VPERM2F128 $1, R, R, Y1; VSHUFPD $5, Y1, R, Y1
#define NBR(q) VBROADCASTSD (q)(AX), Y3
#define CHITAB(t) \
	VMOVUPD ((t)*32)(BX), Y13; VMOVUPD (64+(t)*32)(BX), Y12; \
	MOVQ (128+(t)*8)(BX), AX; LEAQ (SI)(AX*8), AX
#define CHIBLK 144

TEXT ·hopAVX64(SB), NOSPLIT, $128-49
	HOP

TEXT ·aInvAVX64(SB), NOSPLIT, $0-40
	AINV

TEXT ·baAVX64(SB), NOSPLIT, $0-57
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    chi+16(FP), BX
	MOVQ    keep+24(FP), R8
	MOVQ    groups+32(FP), CX
	VBCAST  w0+40(FP), Y15
	VBCAST  w1+48(FP), Y14
	MOVBQZX dagger+56(FP), DX
	BA(BAPAIR)

TEXT ·baxpyAVX64(SB), NOSPLIT, $0-57
	MOVQ    z+0(FP), DI
	MOVQ    y+8(FP), SI
	MOVQ    chi+16(FP), BX
	MOVQ    keep+24(FP), R8
	MOVQ    groups+32(FP), CX
	VBCAST  w0+40(FP), Y15
	VBCAST  w1+48(FP), Y14
	MOVBQZX dagger+56(FP), DX
	VMOVUV  SIGN, Y10
	VXORV   Y9, Y9, Y9
	BA(BXPAIR)

// func loadAVX64(dst, src *float64, stride, ls int)
// func storeAVX64(dst, src *float64, stride, ls int)
//
// A component of a slice is a (re, im) row. Slices 0 and 2 of the block
// share a register, the second through its upper half, as do slices 1 and
// 3, and one unpack of the two makes the component's real plane, another
// its imaginary one. Registers: DI the fibre's block, SI the field at the
// block's first slice, DX the stride in bytes, CX the slices left, R8-R11
// the block's four slices (or the stack spinor).

// SLICES points R8-R11 at the block's slices, real ones in the field and
// the rest at the stack spinor.
#define SLICES \
	MOVQ SI, R8; LEAQ 0(SP), R9; MOVQ R9, R10; MOVQ R9, R11; \
	CMPQ CX, $2; JLT slicesDone; LEAQ (SI)(DX*1), R9; \
	CMPQ CX, $3; JLT slicesDone; LEAQ (SI)(DX*2), R10; \
	CMPQ CX, $4; JLT slicesDone; LEAQ (R10)(DX*1), R11

// LOADT loads component j of the block's four slices into planes 2j and
// 2j+1; STORET stores them back.
#define LOADT(j) \
	VMOVUPD ((j)*16)(R8), X0; VINSERTF128 $1, ((j)*16)(R10), Y0, Y0; \
	VMOVUPD ((j)*16)(R9), X1; VINSERTF128 $1, ((j)*16)(R11), Y1, Y1; \
	VUNPCKLPD Y1, Y0, Y2; VUNPCKHPD Y1, Y0, Y3; \
	VMOVUPD Y2, ((j)*2*PLANE)(DI); VMOVUPD Y3, ((j)*2*PLANE+PLANE)(DI)
#define STORET(j) \
	VMOVUPD ((j)*2*PLANE)(DI), Y0; VMOVUPD ((j)*2*PLANE+PLANE)(DI), Y1; \
	VUNPCKLPD Y1, Y0, Y2; VUNPCKHPD Y1, Y0, Y3; \
	VMOVUPD X2, ((j)*16)(R8); VEXTRACTF128 $1, Y2, ((j)*16)(R10); \
	VMOVUPD X3, ((j)*16)(R9); VEXTRACTF128 $1, Y3, ((j)*16)(R11)

TEXT ·loadAVX64(SB), NOSPLIT, $192-32
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  stride+16(FP), DX
	SHLQ  $4, DX
	MOVQ  ls+24(FP), CX
	TESTQ $3, CX
	JEQ   block
	VXORPD  Y0, Y0, Y0
	VMOVUPD Y0, 0(SP); VMOVUPD Y0, 32(SP); VMOVUPD Y0, 64(SP)
	VMOVUPD Y0, 96(SP); VMOVUPD Y0, 128(SP); VMOVUPD Y0, 160(SP)

block:
	SLICES

slicesDone:
	LOADT(0); LOADT(1); LOADT(2); LOADT(3); LOADT(4); LOADT(5)
	LOADT(6); LOADT(7); LOADT(8); LOADT(9); LOADT(10); LOADT(11)
	ADDQ $GROUP, DI
	LEAQ (SI)(DX*4), SI
	SUBQ $4, CX
	JGT  block
	VZEROUPPER
	RET

TEXT ·storeAVX64(SB), NOSPLIT, $192-32
	MOVQ dst+0(FP), SI
	MOVQ src+8(FP), DI
	MOVQ stride+16(FP), DX
	SHLQ $4, DX
	MOVQ ls+24(FP), CX

block:
	SLICES

slicesDone:
	STORET(0); STORET(1); STORET(2); STORET(3); STORET(4); STORET(5)
	STORET(6); STORET(7); STORET(8); STORET(9); STORET(10); STORET(11)
	ADDQ $GROUP, DI
	LEAQ (SI)(DX*4), SI
	SUBQ $4, CX
	JGT  block
	VZEROUPPER
	RET

#undef VMOVUV
#undef VADDV
#undef VSUBV
#undef VMULV
#undef VXORV
#undef VANDV
#undef VANDNV
#undef VORV
#undef VCMPV
#undef VBCAST
#undef HALF
#undef SIGN
#undef ENTRY
#undef IMAG
#undef LINK
#undef LANEB
#undef ROTDN
#undef ROTUP
#undef NBR
#undef CHITAB
#undef CHIBLK
#undef PLANE
#undef GROUP
#undef U0R
#undef U0I
#undef U1R
#undef U1I
#undef L2R
#undef L2I
#undef L3R
#undef L3I
#undef WR
#undef WI
#undef HR
#undef HI
#undef BR
#undef BI
#undef T0
#undef T1

// The 4-D Wilson site (wilson.go, WilsonSite; DESIGN.md s19, "The 4-D
// site body"): siteAVX is siteGo - the mass term diag*in, the eight legs'
// hops in direction order, and with dagger the gamma_5 on every spinor it
// reads and on its result - for one site of complex128 spinors, in
// VEX-encoded AVX. linalg.HasAVX selects it at start-up (schur_amd64.go).
//
// A register holds one colour of two spins, one complex per 128-bit
// half: the upper accumulators O0-O2 are (out[c], out[3+c]), the lower
// ones Q0-Q2 (out[6+c], out[9+c]), and a projected colour H0-H2 is
// (h0_c, h1_c), so each link entry is broadcast once for both spins. The
// twelve outputs stay in the six accumulators across all eight legs and
// are stored once. Per leg and colour the projection is the neighbour's
// spins 0 and 1 plus or minus its spins 3 and 2 (x, y) or 2 and 3 (z, t),
// swapped within each half where the phase is +-i. A link entry times a
// projected colour is two VMULPD and a VADDSUBPD: (ur*hr - ui*hi,
// ur*hi + ui*hr), cx.times to the bit; cx.conjTimes takes the swapped
// colour negated, (ur*hr - ui*(-hi), ur*hi + ui*(-hr)), which is the same
// two products and sums. A row sums its three terms left to right and is
// halved, as mul and mulAdj do, and the upper spins subtract it; the lower
// spins add or subtract it swapped as reconstruct does, across the halves
// for x and y. Where a lane subtracts and its neighbour lane adds, the
// body adds the operand with that lane's sign flipped: a + (-b) is a - b
// in IEEE arithmetic, so only the sign of a NaN may differ, and a NaN's
// sign is not part of the result (DESIGN.md s19). The dagger
// flips signs where gamma5Spinor does - the lower spins of the site's own
// spinor before the mass term and of the accumulators before the store -
// and projects each neighbour by the body of d^1, which is the projection
// of its gamma_5 copy. No fused multiply-add; VZEROUPPER before each RET.
//
// func siteAVX(out, in *[12]complex128, legs *Legs, diag float64, dagger bool)
//
// Registers: DI out, SI in, BX the legs, AX a leg's neighbour spinor, R10
// its link.

DATA s4lo<>+0(SB)/8, $0x8000000000000000
DATA s4lo<>+8(SB)/8, $0x8000000000000000
DATA s4lo<>+16(SB)/8, $0
DATA s4lo<>+24(SB)/8, $0
GLOBL s4lo<>(SB), RODATA|NOPTR, $32

DATA s4hi<>+0(SB)/8, $0
DATA s4hi<>+8(SB)/8, $0
DATA s4hi<>+16(SB)/8, $0x8000000000000000
DATA s4hi<>+24(SB)/8, $0x8000000000000000
GLOBL s4hi<>(SB), RODATA|NOPTR, $32

#define S4O0 Y0
#define S4O1 Y1
#define S4O2 Y2
#define S4Q0 Y3
#define S4Q1 Y4
#define S4Q2 Y5
#define S4H0 Y6
#define S4H1 Y7
#define S4H2 Y8
#define S4S0 Y9
#define S4S1 Y10
#define S4S2 Y11
#define S4W Y12
#define S4BR Y13
#define S4BI Y14
#define S4X Y15

// S4LD sets R to (p[lo], p[hi]), two complexes of the spinor at p.
#define S4LD(p, lo, hi, R) VBROADCASTF128 ((lo)*16)(p), R; VINSERTF128 $1, ((hi)*16)(p), R, R

// The lane patterns: d = a + s*b lane by lane, s the pattern's signs in
// lane order (re, im of the low half, re, im of the high half). A pattern
// that mixes signs flips b's signs first where the instruction would
// take the other one; b may be clobbered.
#define S4PPPP(b, a, d) VADDPD b, a, d
#define S4MMMM(b, a, d) VSUBPD b, a, d
#define S4MPMP(b, a, d) VADDSUBPD b, a, d
#define S4PMPM(b, a, d) VXORPD sign64<>(SB), b, b; VADDSUBPD b, a, d
#define S4PPMM(b, a, d) VXORPD s4hi<>(SB), b, b; VADDPD b, a, d
#define S4MMPP(b, a, d) VXORPD s4lo<>(SB), b, b; VADDPD b, a, d
#define S4PMMP(b, a, d) VXORPD s4lo<>(SB), b, b; VADDSUBPD b, a, d
#define S4MPPM(b, a, d) VXORPD s4hi<>(SB), b, b; VADDSUBPD b, a, d

// The projections' second operands for colour c: spins 3 and 2 (x, y) or
// 2 and 3 (z, t), swapped within each half for the +-i phases (x, z).
#define S4BXY(c) S4LD(AX, 9+(c), 6+(c), S4W)
#define S4BX(c) S4BXY(c); VPERMILPD $5, S4W, S4W
#define S4BZT(c) S4LD(AX, 6+(c), 9+(c), S4W)
#define S4BZ(c) S4BZT(c); VPERMILPD $5, S4W, S4W

// S4PRJ sets H0-H2 to halfSpinor.project: spins 0 and 1 of the neighbour,
// then OP with the second operand B.
#define S4PRJ(B, OP) \
	S4LD(AX, 0, 3, S4H0); B(0); OP(S4W, S4H0, S4H0); \
	S4LD(AX, 1, 4, S4H1); B(1); OP(S4W, S4H1, S4H1); \
	S4LD(AX, 2, 5, S4H2); B(2); OP(S4W, S4H2, S4H2)

// S4SWM sets S0-S2 to the projection swapped within each half, for mul;
// S4SWA to that negated, for mulAdj.
#define S4SWM \
	VPERMILPD $5, S4H0, S4S0; VPERMILPD $5, S4H1, S4S1; VPERMILPD $5, S4H2, S4S2
#define S4SWA \
	S4SWM; VXORPD sign64<>(SB), S4S0, S4S0; VXORPD sign64<>(SB), S4S1, S4S1; VXORPD sign64<>(SB), S4S2, S4S2

// S4PROD sets BR to the link entry at off times the projected colour in H
// (S its swapped copy).
#define S4PROD(off, H, S) \
	VBROADCASTSD (off)(R10), S4BR; VBROADCASTSD ((off)+8)(R10), S4BI; \
	VMULPD H, S4BR, S4BR; VMULPD S, S4BI, S4BI; VADDSUBPD S4BI, S4BR, S4BR

// S4ROW sets W to one row of the transported half spinor: the entries at
// e0, e1, e2 times the projected colours, summed left to right and halved.
#define S4ROW(e0, e1, e2) \
	S4PROD(e0, S4H0, S4S0); VMOVAPD S4BR, S4W; \
	S4PROD(e1, S4H1, S4S1); VADDPD S4BR, S4W, S4W; \
	S4PROD(e2, S4H2, S4S2); VADDPD S4BR, S4W, S4W; \
	VMULPD half64<>(SB), S4W, S4W

// The lower spins' operand of reconstruct: W as it is (z, t), swapped
// within each half (z), across the halves (y), or both (x).
#define S4RZT(OP, Q) OP(S4W, Q, Q)
#define S4RZ(OP, Q) VPERMILPD $5, S4W, S4X; OP(S4X, Q, Q)
#define S4RY(OP, Q) VPERM2F128 $1, S4W, S4W, S4X; OP(S4X, Q, Q)
#define S4RX(OP, Q) VPERM2F128 $1, S4W, S4W, S4X; VPERMILPD $5, S4X, S4X; OP(S4X, Q, Q)

// S4REC is reconstruct for row r: the upper spins subtract W, the lower
// ones take it by R and OP.
#define S4REC(O, Q, R, OP) VSUBPD S4W, O, O; R(OP, Q)

// S4LEG is hop direction d: the neighbour and link of leg d, the
// projection by B and POP, the swap SW, and per row the link's row r (mul,
// E = 16: entries 16*(3r+k)) or column r (mulAdj, E = 48: 16*(r+3k)) and
// the reconstruction by R and ROP.
#define S4LEG(d, B, POP, SW, MUL, R, ROP) \
	MOVQ ((d)*16)(BX), AX; MOVQ ((d)*16+8)(BX), R10; \
	S4PRJ(B, POP); SW; \
	MUL(0); S4REC(S4O0, S4Q0, R, ROP); \
	MUL(1); S4REC(S4O1, S4Q1, R, ROP); \
	MUL(2); S4REC(S4O2, S4Q2, R, ROP)
#define S4MUL(r) S4ROW(48*(r), 48*(r)+16, 48*(r)+32)
#define S4ADJ(r) S4ROW(16*(r), 16*(r)+48, 16*(r)+96)

// S4MASS sets an accumulator to diag times itself as the complex product
// (diag, 0)*(r, i) = (diag*r - 0*i, diag*i + 0*r): Y13 holds diag, Y14
// zero.
#define S4MASS(R) \
	VPERMILPD $5, R, S4X; VMULPD S4BI, S4X, S4X; VMULPD S4BR, R, R; VADDSUBPD S4X, R, R

// S4STORE stores the accumulators: O0-O2 at components c and 3+c, Q0-Q2
// at 6+c and 9+c.
#define S4ST(X, Y, lo, hi) VMOVUPD X, ((lo)*16)(DI); VEXTRACTF128 $1, Y, ((hi)*16)(DI)
#define S4STORE \
	S4ST(X0, Y0, 0, 3); S4ST(X1, Y1, 1, 4); S4ST(X2, Y2, 2, 5); \
	S4ST(X3, Y3, 6, 9); S4ST(X4, Y4, 7, 10); S4ST(X5, Y5, 8, 11)

TEXT ·siteAVX(SB), NOSPLIT, $0-33
	MOVQ out+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ legs+16(FP), BX
	VBROADCASTSD diag+24(FP), S4BR
	VXORPD S4BI, S4BI, S4BI
	MOVBQZX dagger+32(FP), DX
	S4LD(SI, 0, 3, S4O0); S4MASS(S4O0)
	S4LD(SI, 1, 4, S4O1); S4MASS(S4O1)
	S4LD(SI, 2, 5, S4O2); S4MASS(S4O2)
	S4LD(SI, 6, 9, S4Q0)
	S4LD(SI, 7, 10, S4Q1)
	S4LD(SI, 8, 11, S4Q2)
	TESTQ DX, DX
	JNE   g5site

	S4MASS(S4Q0); S4MASS(S4Q1); S4MASS(S4Q2)
	S4LEG(0, S4BX, S4PMPM, S4SWM, S4MUL, S4RX, S4PMPM)
	S4LEG(1, S4BX, S4MPMP, S4SWA, S4ADJ, S4RX, S4MPMP)
	S4LEG(2, S4BXY, S4PPMM, S4SWM, S4MUL, S4RY, S4PPMM)
	S4LEG(3, S4BXY, S4MMPP, S4SWA, S4ADJ, S4RY, S4MMPP)
	S4LEG(4, S4BZ, S4PMMP, S4SWM, S4MUL, S4RZ, S4PMMP)
	S4LEG(5, S4BZ, S4MPPM, S4SWA, S4ADJ, S4RZ, S4MPPM)
	S4LEG(6, S4BZT, S4MMMM, S4SWM, S4MUL, S4RZT, S4PPPP)
	S4LEG(7, S4BZT, S4PPPP, S4SWA, S4ADJ, S4RZT, S4MMMM)
	S4STORE
	VZEROUPPER
	RET

g5site:
	VXORPD sign64<>(SB), S4Q0, S4Q0; S4MASS(S4Q0)
	VXORPD sign64<>(SB), S4Q1, S4Q1; S4MASS(S4Q1)
	VXORPD sign64<>(SB), S4Q2, S4Q2; S4MASS(S4Q2)
	S4LEG(0, S4BX, S4MPMP, S4SWM, S4MUL, S4RX, S4PMPM)
	S4LEG(1, S4BX, S4PMPM, S4SWA, S4ADJ, S4RX, S4MPMP)
	S4LEG(2, S4BXY, S4MMPP, S4SWM, S4MUL, S4RY, S4PPMM)
	S4LEG(3, S4BXY, S4PPMM, S4SWA, S4ADJ, S4RY, S4MMPP)
	S4LEG(4, S4BZ, S4MPPM, S4SWM, S4MUL, S4RZ, S4PMMP)
	S4LEG(5, S4BZ, S4PMMP, S4SWA, S4ADJ, S4RZ, S4MPPM)
	S4LEG(6, S4BZT, S4PPPP, S4SWM, S4MUL, S4RZT, S4PPPP)
	S4LEG(7, S4BZT, S4MMMM, S4SWA, S4ADJ, S4RZT, S4MMMM)
	VXORPD sign64<>(SB), S4Q0, S4Q0
	VXORPD sign64<>(SB), S4Q1, S4Q1
	VXORPD sign64<>(SB), S4Q2, S4Q2
	S4STORE
	VZEROUPPER
	RET
