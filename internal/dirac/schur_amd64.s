#include "textflag.h"

// The Schur kernel's hop on the lane-major layout (schur.go, DESIGN.md s19):
// hopAVX32 and hopAVX64 are fibreHop for one site, every lane of its
// fibre, in VEX-encoded AVX, and hopAVX32x2 is it for a site of the pair
// layout (pair.go). The build links them on every amd64 host, but
// schur_amd64.go selects them only where linalg.HasAVX - the start-up probe
// of the host's AVX and of the OS saving YMM state - holds; elsewhere
// fibreHop runs the Go body. A plane is one register, an XMM of four
// float32 or a YMM of four float64, one fifth-dimension slice a lane, so in
// either precision a register group is one block of the layout; in the
// pair layout it is a YMM of eight float32, two systems' blocks side by
// side, and since every instruction of the body acts lane by lane (the
// link entries are broadcast to all eight), each half computes what
// hopAVX32 computes for its system. Every arithmetic instruction is a
// packed MUL, ADD or SUB with no fused multiply-add.
//
// The loop nest is register-blocked. Per block and per output colour row
// r, the row's eight planes - components r, 3+r, 6+r and 9+r, real and
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
// A body that writes a Y register leaves its upper halves dirty, and the
// next legacy SSE instruction (Go's own float code at GOAMD64=v1, the SSE
// fifth-dimension bodies below) then pays a state transition of about 500
// cycles. So no body that names a Y register mixes in a legacy SSE
// instruction, and each issues VZEROUPPER before every RET
// (TestAssemblyDiscipline reads this file and holds it to that).
//
// func hopAVX32(dst, src *float32, hops *lattice.Hop, u *[4][]link[float32], keep *float32, ls int, g5 bool)
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

// The float32 constants are eight lanes wide for the pair body; the XMM
// body reads the first four.
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

// The float32 body: a plane is one XMM register of four slices.
#define VMOVUV VMOVUPS
#define VADDV VADDPS
#define VSUBV VSUBPS
#define VMULV VMULPS
#define VXORV VXORPS
#define VANDV VANDPS
#define VBCAST VBROADCASTSS
#define HALF half32<>(SB)
#define SIGN sign32<>(SB)
#define ENTRY 8
#define IMAG 4
#define LINK 72
#define PLANE 16
#define GROUP 384
#define U0R X0
#define U0I X1
#define U1R X2
#define U1I X3
#define L2R X4
#define L2I X5
#define L3R X6
#define L3I X7
#define WR X8
#define WI X9
#define HR X10
#define HI X11
#define BR X12
#define BI X13
#define T0 X14
#define T1 X15

TEXT ·hopAVX32(SB), NOSPLIT, $128-49
	PROLOGUE
	TESTQ DX, DX
	JNE   g5block

plainblock:
	XORQ R13, R13
	XORQ R14, R14

plainrow:
	ZEROROW
	HOPS
	STOREROW
	NEXTROW
	JNE plainrow
	NEXTBLOCK
	JNZ plainblock
	VZEROUPPER
	RET

g5block:
	XORQ R13, R13
	XORQ R14, R14

g5row:
	ZEROROW
	HOPSG5
	NEGLOWER
	STOREROW
	NEXTROW
	JNE g5row
	NEXTBLOCK
	JNZ g5block
	VZEROUPPER
	RET

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

// The float32 pair body: a plane is one YMM register of eight floats,
// system A's four slices of the block and then system B's; the rest is the
// float32 body's.
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

TEXT ·hopAVX32x2(SB), NOSPLIT, $128-49
	PROLOGUE
	TESTQ DX, DX
	JNE   g5block

plainblock:
	XORQ R13, R13
	XORQ R14, R14

plainrow:
	ZEROROW
	HOPS
	STOREROW
	NEXTROW
	JNE plainrow
	NEXTBLOCK
	JNZ plainblock
	VZEROUPPER
	RET

g5block:
	XORQ R13, R13
	XORQ R14, R14

g5row:
	ZEROROW
	HOPSG5
	NEGLOWER
	STOREROW
	NEXTROW
	JNE g5row
	NEXTBLOCK
	JNZ g5block
	VZEROUPPER
	RET

#undef VMOVUV
#undef VADDV
#undef VSUBV
#undef VMULV
#undef VXORV
#undef VANDV
#undef VBCAST
#undef HALF
#undef SIGN
#undef ENTRY
#undef IMAG
#undef LINK

// The float64 body: a plane is one YMM register of four slices, the pair
// body's registers and strides.
#define VMOVUV VMOVUPD
#define VADDV VADDPD
#define VSUBV VSUBPD
#define VMULV VMULPD
#define VXORV VXORPD
#define VANDV VANDPD
#define VBCAST VBROADCASTSD
#define HALF half64<>(SB)
#define SIGN sign64<>(SB)
#define ENTRY 16
#define IMAG 8
#define LINK 144

TEXT ·hopAVX64(SB), NOSPLIT, $128-49
	PROLOGUE
	TESTQ DX, DX
	JNE   g5block

plainblock:
	XORQ R13, R13
	XORQ R14, R14

plainrow:
	ZEROROW
	HOPS
	STOREROW
	NEXTROW
	JNE plainrow
	NEXTBLOCK
	JNZ plainblock
	VZEROUPPER
	RET

g5block:
	XORQ R13, R13
	XORQ R14, R14

g5row:
	ZEROROW
	HOPSG5
	NEGLOWER
	STOREROW
	NEXTROW
	JNE g5row
	NEXTBLOCK
	JNZ g5block
	VZEROUPPER
	RET

#undef VMOVUV
#undef VADDV
#undef VSUBV
#undef VMULV
#undef VXORV
#undef VANDV
#undef VBCAST
#undef HALF
#undef SIGN
#undef ENTRY
#undef IMAG
#undef LINK
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

// The fifth-dimension passes on the same layout: fibreAInv, fibreBA,
// fibreBAxpy, fibreAxpy, load and store for one site, as the hop is
// fibreHop for one, in baseline SSE/SSE2 (GOAMD64=v1, no feature check):
// every amd64 host runs them. The rule is the hop's: packed MUL, ADD and
// SUB with no fused multiply-add, each lane issuing its slice's scalar operations in
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

// The fifth-dimension passes in the pair layout (pair.go): fibreAInv,
// fibreBA, fibreBAxpy, load and store for a site of two systems, in
// VEX-encoded AVX on 256-bit registers. A plane is one YMM register,
// system A's four slices in its low half and system B's in its high half,
// and every shuffle is an in-lane one (VPERMILPS, VSHUFPS, VUNPCKLPS,
// VUNPCKHPS), which acts on each half alone: each half runs the float32
// SSE body's instructions above on its own system, operand for operand, so
// each system comes out to the bit as the SSE body leaves it, NaNs
// included. Where the SSE body broadcasts one slice (MOVSS, SHUFPS), the
// pair body moves the slice's lane across each half with VPERMILPS: by an
// immediate in fibreAInv, whose slice loop runs the four lanes of an input
// block as four copies, and by the chiPair block's control (perm) in
// fibreBA and fibreBAxpy. The tables - keep, chi, the padded columns - are
// the single layout's with each block repeated in both halves (pairOp).
// load and store transpose four slices of each system at once, system B's
// rows through the upper halves (VINSERTF128, VEXTRACTF128). Every body
// ends with VZEROUPPER.
//
// func aInvAVX32x2(dst, src, colP, colM *float32, ls int)
//
// Registers: DI the output block, SI the input fibre, R8/R9 the pair
// columns of P+/P- at the output block, R11 the column stride, DX the
// blocks left, R12 the column of the slice, R13 the sector's plane
// offset, AX the input slice's block, BX the slices left. Y0-Y11
// accumulate, Y12 is the column, Y13 its mask, Y14 the input, Y15 zero.

// PACC adds plane q of the input slice in lane imm of the block at AX,
// times the column and ANDed with its mask, to acc.
#define PACC(q, imm, acc) VPERMILPS $imm, ((q)*32)(AX), Y14; VMULPS Y12, Y14, Y14; VANDPS Y13, Y14, Y14; VADDPS Y14, acc, acc

// PSLICE is one input slice: its column and mask, then its twelve planes.
#define PSLICE(imm) \
	VMOVUPS (R12), Y12; VCMPPS $4, Y15, Y12, Y13; \
	PACC(0, imm, Y0); PACC(1, imm, Y1); PACC(2, imm, Y2); PACC(3, imm, Y3); \
	PACC(4, imm, Y4); PACC(5, imm, Y5); PACC(6, imm, Y6); PACC(7, imm, Y7); \
	PACC(8, imm, Y8); PACC(9, imm, Y9); PACC(10, imm, Y10); PACC(11, imm, Y11); \
	ADDQ R11, R12

TEXT ·aInvAVX32x2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ colP+16(FP), R8
	MOVQ colM+24(FP), R9
	MOVQ ls+32(FP), CX
	LEAQ 3(CX), DX
	SHRQ $2, DX
	MOVQ DX, R11
	SHLQ $5, R11
	VXORPS Y15, Y15, Y15

pgroup:
	MOVQ R8, R12
	XORQ R13, R13

psector:
	VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4; VXORPS Y5, Y5, Y5; VXORPS Y6, Y6, Y6; VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8; VXORPS Y9, Y9, Y9; VXORPS Y10, Y10, Y10; VXORPS Y11, Y11, Y11
	LEAQ (SI)(R13*1), AX
	MOVQ CX, BX

pslice:
	PSLICE(0x00)
	DECQ BX
	JZ   pdone
	PSLICE(0x55)
	DECQ BX
	JZ   pdone
	PSLICE(0xaa)
	DECQ BX
	JZ   pdone
	PSLICE(0xff)
	ADDQ $768, AX
	DECQ BX
	JNZ  pslice

pdone:
	LEAQ (DI)(R13*1), AX
	VMOVUPS Y0, (0*32)(AX); VMOVUPS Y1, (1*32)(AX); VMOVUPS Y2, (2*32)(AX); VMOVUPS Y3, (3*32)(AX)
	VMOVUPS Y4, (4*32)(AX); VMOVUPS Y5, (5*32)(AX); VMOVUPS Y6, (6*32)(AX); VMOVUPS Y7, (7*32)(AX)
	VMOVUPS Y8, (8*32)(AX); VMOVUPS Y9, (9*32)(AX); VMOVUPS Y10, (10*32)(AX); VMOVUPS Y11, (11*32)(AX)
	TESTQ R13, R13
	JNE   pnext
	MOVQ  $(12*32), R13
	MOVQ  R9, R12
	JMP   psector

pnext:
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $768, DI
	DECQ DX
	JNZ  pgroup
	VZEROUPPER
	RET

// func baAVX32x2(dst, src *float32, chi *chiPair[float32], keep *float32, groups int, w0, w1 float32, dagger bool)
// func baxpyAVX32x2(z, y *float32, chi *chiPair[float32], keep *float32, groups int, w0, w1 float32, dagger bool)
//
// Registers as in baSSE32 and baxpySSE32, on Y registers, with Y8 the
// sector's lane control.

// PBAV is BAV on the pair: R is B (or A) of the source plane at q.
#define PBAV(q, R, ROT) \
	VMOVUPS (q)(SI), R; VPERMILPS $ROT, R, Y1; VANDNPS Y1, Y13, Y2; \
	VMOVUPS (q)(AX), Y3; VPERMILPS Y8, Y3, Y3; VANDPS Y13, Y3, Y3; VORPS Y3, Y2, Y2; \
	VMULPS Y12, Y2, Y2; VMULPS Y14, Y2, Y2; VMULPS Y15, R, R; VADDPS Y2, R, R

// PBASECTOR loads shift t's rep, wt, perm and pos (chiPair) and runs BODY
// on the sector's twelve planes from plane offset base.
#define PBASECTOR(t, base, ROT, BODY) \
	VMOVUPS ((t)*32)(BX), Y13; VMOVUPS (64+(t)*32)(BX), Y12; VMOVUPS (128+(t)*32)(BX), Y8; \
	MOVQ (192+(t)*8)(BX), AX; LEAQ (SI)(AX*4), AX; \
	BODY((base)+0*32, ROT); BODY((base)+2*32, ROT); BODY((base)+4*32, ROT); \
	BODY((base)+6*32, ROT); BODY((base)+8*32, ROT); BODY((base)+10*32, ROT)

#define PBAPAIR(q, ROT) \
	PBAV(q, Y0, ROT); VANDPS Y11, Y0, Y0; VMOVUPS Y0, (q)(DI); \
	PBAV((q)+32, Y0, ROT); VANDPS Y11, Y0, Y0; VMOVUPS Y0, ((q)+32)(DI)

// PBXPAIR is BXPAIR on the pair: Y10 is -1, Y9 zero.
#define PBXPAIR(q, ROT) \
	PBAV(q, Y4, ROT); PBAV((q)+32, Y5, ROT); \
	VMOVUPS (q)(DI), Y6; VMOVUPS ((q)+32)(DI), Y7; \
	VMULPS Y10, Y6, Y0; VMULPS Y9, Y7, Y1; VSUBPS Y1, Y0, Y0; VADDPS Y4, Y0, Y0; \
	VANDPS Y11, Y0, Y0; VMOVUPS Y0, (q)(DI); \
	VMULPS Y10, Y7, Y7; VMULPS Y9, Y6, Y6; VADDPS Y6, Y7, Y7; VADDPS Y5, Y7, Y7; \
	VANDPS Y11, Y7, Y7; VMOVUPS Y7, ((q)+32)(DI)

DATA negone32<>+0(SB)/8, $0xbf800000bf800000
DATA negone32<>+8(SB)/8, $0xbf800000bf800000
DATA negone32<>+16(SB)/8, $0xbf800000bf800000
DATA negone32<>+24(SB)/8, $0xbf800000bf800000
GLOBL negone32<>(SB), RODATA|NOPTR, $32

TEXT ·baAVX32x2(SB), NOSPLIT, $0-49
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ chi+16(FP), BX
	MOVQ keep+24(FP), R8
	MOVQ groups+32(FP), CX
	VBROADCASTSS w0+40(FP), Y15
	VBROADCASTSS w1+44(FP), Y14
	MOVBQZX dagger+48(FP), DX

pbablock:
	VMOVUPS (R8), Y11
	TESTQ   DX, DX
	JNE     pbadag
	PBASECTOR(0, 0, 0x93, PBAPAIR)
	PBASECTOR(1, 12*32, 0x39, PBAPAIR)
	JMP     pbanext

pbadag:
	PBASECTOR(1, 0, 0x39, PBAPAIR)
	PBASECTOR(0, 12*32, 0x93, PBAPAIR)

pbanext:
	ADDQ $768, DI
	ADDQ $768, SI
	ADDQ $208, BX
	ADDQ $32, R8
	DECQ CX
	JNZ  pbablock
	VZEROUPPER
	RET

TEXT ·baxpyAVX32x2(SB), NOSPLIT, $0-49
	MOVQ z+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ chi+16(FP), BX
	MOVQ keep+24(FP), R8
	MOVQ groups+32(FP), CX
	VBROADCASTSS w0+40(FP), Y15
	VBROADCASTSS w1+44(FP), Y14
	MOVBQZX dagger+48(FP), DX
	VMOVUPS negone32<>(SB), Y10
	VXORPS  Y9, Y9, Y9

pbxblock:
	VMOVUPS (R8), Y11
	TESTQ   DX, DX
	JNE     pbxdag
	PBASECTOR(0, 0, 0x93, PBXPAIR)
	PBASECTOR(1, 12*32, 0x39, PBXPAIR)
	JMP     pbxnext

pbxdag:
	PBASECTOR(1, 0, 0x39, PBXPAIR)
	PBASECTOR(0, 12*32, 0x93, PBXPAIR)

pbxnext:
	ADDQ $768, DI
	ADDQ $768, SI
	ADDQ $208, BX
	ADDQ $32, R8
	DECQ CX
	JNZ  pbxblock
	VZEROUPPER
	RET

// func loadAVX32x2(dst, a, b *float32, stride, ls int)
// func storeAVX32x2(a, b, src *float32, stride, ls int)
//
// Registers: DI the pair fibre's block, SI and BX systems A's and B's
// fields at the block's first slice, DX the stride in bytes, CX the slices
// left, R8-R11 system A's four slices and R12, R13, R14, AX system B's (or
// the stack spinor).

// PSLICES points R8-R11 and R12-R14, AX at the block's slices.
#define PSLICES \
	MOVQ SI, R8; MOVQ BX, R12; LEAQ 0(SP), R9; MOVQ R9, R10; MOVQ R9, R11; MOVQ R9, R13; MOVQ R9, R14; MOVQ R9, AX; \
	CMPQ CX, $2; JLT slicesDone; LEAQ (SI)(DX*1), R9; LEAQ (BX)(DX*1), R13; \
	CMPQ CX, $3; JLT slicesDone; LEAQ (SI)(DX*2), R10; LEAQ (BX)(DX*2), R14; \
	CMPQ CX, $4; JLT slicesDone; LEAQ (R10)(DX*1), R11; LEAQ (R14)(DX*1), AX

// PTRANSPOSE is TRANSPOSE32 in each half: rows Y0-Y3 into planes Y0-Y3.
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
	JEQ   plblock
	VXORPS  Y0, Y0, Y0
	VMOVUPS Y0, 0(SP); VMOVUPS Y0, 32(SP); VMOVUPS Y0, 64(SP)

plblock:
	PSLICES

slicesDone:
	PLOADT(0); PLOADT(1); PLOADT(2); PLOADT(3); PLOADT(4); PLOADT(5)
	ADDQ $768, DI
	LEAQ (SI)(DX*4), SI
	LEAQ (BX)(DX*4), BX
	SUBQ $4, CX
	JGT  plblock
	VZEROUPPER
	RET

TEXT ·storeAVX32x2(SB), NOSPLIT, $96-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), BX
	MOVQ src+16(FP), DI
	MOVQ stride+24(FP), DX
	SHLQ $3, DX
	MOVQ ls+32(FP), CX

psblock:
	PSLICES

slicesDone:
	PSTORET(0); PSTORET(1); PSTORET(2); PSTORET(3); PSTORET(4); PSTORET(5)
	ADDQ $768, DI
	LEAQ (SI)(DX*4), SI
	LEAQ (BX)(DX*4), BX
	SUBQ $4, CX
	JGT  psblock
	VZEROUPPER
	RET

// The float64 bodies: a plane is two registers, lo (lanes 0, 1) and hi
// (lanes 2, 3). fibreAInv runs per register; the others
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
