package dirac

import "femtoverse/internal/lattice"

// The pair layout (DESIGN.md s19) runs two systems through one pass of
// the kernel. A pair fibre interleaves two fibres of the lane-major layout
// plane by plane: plane p of block b holds system A's four slices of the
// block in lanes 0-3 and system B's in lanes 4-7, one 256-bit register of
// float32. The AVX shuffles a body needs act within each 128-bit half, so
// each half runs exactly the instructions the single layout's body runs
// on its four lanes: the pair bodies are the single bodies on Y registers,
// and each system comes out as it would alone, to the bit. Only the passes
// of Apply and ApplyDagger have pair bodies.

// pairBodies are the pair layout's site passes, the vecBodies of two
// systems: the hop, A^{-1}, B or A (ba), its closing axpy (baxpy), and
// the load and store that transpose between the two systems' fields and a
// pair fibre.
type pairBodies[F float32 | float64] struct {
	hop   func(dst, src *F, hops *lattice.Hop, u *[lattice.NDim][]link[F], keep *F, ls int, g5 bool)
	aInv  func(dst, src, colP, colM *F, ls int)
	ba    func(dst, src *F, chi *chiPair[F], keep *F, groups int, w0, w1 F, dagger bool)
	baxpy func(z, y *F, chi *chiPair[F], keep *F, groups int, w0, w1 F, dagger bool)
	load  func(dst, a, b *F, stride, ls int)
	store func(a, b, src *F, stride, ls int)
}

// pair32 is the build's pair bodies, set at start-up where the host runs
// them (schur_amd64.go) and nil elsewhere. There are none for float64: a
// float64 plane already fills a YMM register.
var pair32 *pairBodies[float32]

// chiPair is a block's chiBlock in the pair layout: rep and wt repeated in
// both halves, and in place of the broadcast slice's offset the offset of
// its block (pos, in floats from this block) and a control that moves its
// lane across each half (perm), which is how the pair bodies broadcast it
// to both systems at once.
type chiPair[F float32 | float64] struct {
	rep, wt [2][2 * laneW]F
	perm    [2][2 * laneW]int32
	pos     [2]int
}

// pairOp is the pair layout of an operator: its bodies, and keep, chi and
// the padded columns of A's inverses, each block's lanes repeated in both
// halves.
type pairOp[F float32 | float64] struct {
	*pairBodies[F]
	keep       []F
	chi        []chiPair[F]
	colP, colM []F
}

// setPair builds the pair layout's tables from the single layout's, or
// none when bodies is nil.
func (o *schurOp[F]) setPair(bodies *pairBodies[F]) {
	o.pair = nil
	if bodies == nil {
		return
	}
	pad := o.groups * laneW
	p := &pairOp[F]{
		pairBodies: bodies,
		keep:       make([]F, 2*pad),
		chi:        make([]chiPair[F], o.groups),
		colP:       make([]F, 2*o.ls*pad),
		colM:       make([]F, 2*o.ls*pad),
	}
	// twice copies a block's lanes into both halves of its pair block.
	twice := func(dst, src []F) {
		copy(dst[:laneW], src[:laneW])
		copy(dst[laneW:2*laneW], src[:laneW])
	}
	for b := 0; b < o.groups; b++ {
		twice(p.keep[2*b*laneW:], o.keep[b*laneW:])
		for sIn := 0; sIn < o.ls; sIn++ {
			twice(p.colP[(sIn*o.groups+b)*2*laneW:], o.colP[sIn*pad+b*laneW:])
			twice(p.colM[(sIn*o.groups+b)*2*laneW:], o.colM[sIn*pad+b*laneW:])
		}
		c, pc := &o.chi[b], &p.chi[b]
		for t := range c.src {
			twice(pc.rep[t][:], c.rep[t][:])
			twice(pc.wt[t][:], c.wt[t][:])
			// c.src is the broadcast slice's lane offset from lane 0 of this
			// block: a whole number of blocks plus its lane in its block.
			blocks := floorDiv(c.src[t], 2*SpinorLen*laneW)
			l := c.src[t] - blocks*2*SpinorLen*laneW
			pc.pos[t] = blocks * 2 * 2 * SpinorLen * laneW
			for h := range pc.perm[t] {
				pc.perm[t][h] = int32(l)
			}
		}
	}
	o.pair = p
}

// floorDiv is a/b rounded down, for b > 0.
func floorDiv(a, b int) int {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// pairFibre is site i's pair fibre in a pair-sized scratch field.
func (k *schur[F]) pairFibre(f []F, i int) []F {
	return f[i*2*k.fib:][:2*k.fib]
}
