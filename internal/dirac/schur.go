package dirac

import (
	"math"

	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// schurOp is what a Schur operator is, in one precision: the geometry, the
// stencil table, the gauge links in lanes, the fifth-dimension constants
// and the lane-major layout of the kernel's scratch. It is read-only once
// built and copied by value into every view of the operator.
type schurOp[F float32 | float64] struct {
	ls, halfVol int
	hops        *[2][]lattice.Hop
	// oddLex is the lexicographic site of each odd-parity site, where
	// Reconstruct writes the odd solution.
	oddLex []int32
	u      [lattice.NDim][]link[F]

	// A = a + c*chi, B = b5 + c5*chi, m the quark mass in chi's wrap.
	a, c, b5, c5, m F
	// minvP / minvM are the Ls x Ls inverses of A restricted to the P+
	// (spins 0,1) and P- (spins 2,3) chirality sectors; minvM is the
	// transpose of minvP because the sectors are transposes of each other.
	minvP, minvM []F
	// colP / colM are their columns padded to the lanes: colP[sIn*pad+sOut]
	// is minvP[sOut*Ls+sIn], zero for the padding lanes sOut >= Ls.
	colP, colM []F

	// The lane-major layout (DESIGN.md s19). A site's fibre is groups
	// blocks of 24 planes of laneW floats: plane 2j holds the real parts of
	// component j and plane 2j+1 the imaginary ones, one lane per
	// fifth-dimension slice, so that slice s sits in lane s%laneW of block
	// s/laneW. The lanes past Ls are padding that starts at zero, never
	// leaves the kernel and never mixes with a real lane. fib is the
	// fibre's length in floats and lane[s] slice s's offset in it.
	groups, fib int
	lane        []int

	// keep is a lane mask per block, all bits set in a real lane and +0 in
	// a padding lane, and chi the per-block tables of the vector chi; only
	// the vector bodies read them.
	keep []F
	chi  []chiBlock[F]

	// vec names the vector bodies of the build, hop and fifth-dimension
	// passes alike; nil where the build has none, and then every pass runs
	// its portable Go body on the same layout, as a pass whose body in vec
	// is nil does (BenchmarkSchurNormalPaired's reference sets the hop
	// alone).
	vec *vecBodies[F]
	// pair is the pair layout's bodies and tables (pair.go); nil where the
	// build has no pair bodies for the precision, and then a pair is two
	// single applications.
	pair *pairOp[F]
}

// vecBodies are one site's passes in vector instructions, with the
// signatures the assembly bodies of schur_amd64.s have: the hop of all
// eight directions, A^{-1}, B or A (ba), its closing axpy (baxpy), the
// plain axpy, and the load and store that transpose between a caller's
// field and the lane-major fibre.
type vecBodies[F float32 | float64] struct {
	hop   func(dst, src *F, hops *lattice.Hop, u *[lattice.NDim][]link[F], keep *F, ls int, g5 bool)
	aInv  func(dst, src, colP, colM *F, lane *int, ls int)
	ba    func(dst, src *F, chi *chiBlock[F], keep *F, groups int, w0, w1 F, dagger bool)
	baxpy func(z, y *F, chi *chiBlock[F], keep *F, groups int, w0, w1 F, dagger bool)
	axpy  func(y, x, keep *F, groups int)
	load  func(dst, src *F, stride, ls int)
	store func(dst, src *F, stride, ls int)
}

// vec32 and vec64 are the vector bodies the build provides, set at
// start-up where there are any (schur_amd64.go) and nil elsewhere; their
// hop is nil on an amd64 host without AVX, which runs the Go hop.
var (
	vec32 *vecBodies[float32]
	vec64 *vecBodies[float64]
)

// chiBlock is chi on one block of a fibre as the vector bodies apply it,
// for the two shifts it is made of: index 0 reads slice s-1 (chi's P+
// sector, chi^dagger's P-), index 1 slice s+1. A shift is a fixed rotation
// of the block's four lanes; the one lane whose neighbour lies across the
// block's edge or across the chiral wrap (all bits set in rep) takes a
// broadcast of that neighbour instead, slice src, at src's float offset
// from the block. wt is the weight chiNeighbours gives each lane: 1 in the
// bulk, -m at the wrap.
type chiBlock[F float32 | float64] struct {
	rep, wt [2][laneW]F
	src     [2]int
}

// laneW is the lane count of a plane: one 16-byte register of float32,
// two of float64 in the SSE fifth-dimension bodies, and one XMM or one YMM
// register in the AVX hop. One width for both precisions keeps the Go
// fibre loops' strides constant and puts the fh-* shape, Ls 4, in a single
// block.
const laneW = 4

// setLayout fixes the lane-major layout, the vector tables, and the
// vector and pair bodies the build provides for the precision.
func (o *schurOp[F]) setLayout(vec *vecBodies[F], pair *pairBodies[F]) {
	o.groups = (o.ls + laneW - 1) / laneW
	o.fib = o.groups * 2 * SpinorLen * laneW
	o.lane = make([]int, o.ls)
	for s := range o.lane {
		o.lane[s] = s/laneW*2*SpinorLen*laneW + s%laneW
	}
	pad := o.groups * laneW
	o.colP, o.colM = make([]F, o.ls*pad), make([]F, o.ls*pad)
	for sIn := 0; sIn < o.ls; sIn++ {
		for sOut := 0; sOut < o.ls; sOut++ {
			o.colP[sIn*pad+sOut] = o.minvP[sOut*o.ls+sIn]
			o.colM[sIn*pad+sOut] = o.minvM[sOut*o.ls+sIn]
		}
	}
	ones := allOnes[F]()
	o.keep = make([]F, pad)
	for s := 0; s < o.ls; s++ {
		o.keep[s] = ones
	}
	o.chi = make([]chiBlock[F], o.groups)
	for b := range o.chi {
		c := &o.chi[b]
		c.wt = [2][laneW]F{{1, 1, 1, 1}, {1, 1, 1, 1}}
		// s-1 crosses the block's edge in its first lane, and wraps there
		// in block 0.
		s, base := b*laneW, o.lane[b*laneW]
		sp, pw, _, _ := chiNeighbours(s, o.ls, -o.m, false)
		c.rep[0][0], c.wt[0][0], c.src[0] = ones, pw, o.lane[sp]-base
		// s+1 crosses it in the last lane, and wraps at the last real one.
		s = min(s+laneW, o.ls) - 1
		_, _, sm, mw := chiNeighbours(s, o.ls, -o.m, false)
		c.rep[1][s%laneW], c.wt[1][s%laneW], c.src[1] = ones, mw, o.lane[sm]-base
	}
	o.vec = vec
	o.setPair(pair)
}

// allOnes is the float whose bits are all set: a lane mask as the vector
// bodies AND it.
func allOnes[F float32 | float64]() F {
	var f F
	switch p := any(&f).(type) {
	case *float32:
		*p = math.Float32frombits(^uint32(0))
	case *float64:
		*p = math.Float64frombits(^uint64(0))
	}
	return f
}

// schur is the fused even-odd Schur kernel, the one source MobiusEO and
// MobiusEO32 instantiate: an operator and one applier's own state on it.
// The caller's fields are half-volume, layout (s*halfVol + i)*SpinorLen +
// comp; the kernel's scratch is lane-major.
type schur[F float32 | float64] struct {
	schurOp[F]

	// Scratch half-fields, lane-major: pair-sized where the operator has
	// the pair layout, whose fibres are twice as long, and the single
	// layout then uses their first half. mid is ApplyNormal's D x, a half
	// field a system in the caller's layout, for its dagger's last pass.
	t1, t2, t3 []F
	mid        [2][]cx[F]

	// The pass in flight: which site loop, on what. dst[1] and src[1] are
	// the second system's fields, and two is set, in a pass of the pair
	// layout. sites is runSites bound once, so that handing it to
	// linalg.For builds no closure per application. A method value
	// captures its receiver: own must run on the kernel at its final
	// address, and again on every copy.
	stage    schurStage
	two      bool
	dst, src [2][]cx[F]
	sites    func(lo, hi int)
}

// own gives k the state no two appliers may share: the scratch half-fields
// and the bound site loop.
func (k *schur[F]) own() {
	n, half := k.halfVol*k.fib, k.ls*k.halfVol*SpinorLen
	k.mid[0] = make([]cx[F], half)
	if k.pair != nil {
		n *= 2
		k.mid[1] = make([]cx[F], half)
	}
	k.t1, k.t2, k.t3 = make([]F, n), make([]F, n), make([]F, n)
	k.sites = k.runSites
}

// schurStage names one fused pass over a parity block. Each pass carries
// every site of its range through all of the pass's stages while the
// site's fibre - its Ls slices of 12 components - is hot in cache, so no
// intermediate vector is swept a second time. Every stage works on the
// lane-major scratch; the passes that read a caller's field load its
// fibre (L), the ones that write one store it (S):
//
//	Apply        stageB         t1 = B L(x_e)
//	             stageInner     t2 = B A^{-1} Hop_oe t1
//	             stageOuter     S(dst_e) = A L(x_e) - Hop_eo t2, kept in t3
//	ApplyDagger  stageLoad      t3 = L(x_e)
//	             stageInnerDag  t2 = A^{-dag} B^dag g5 Hop_oe g5 t3
//	             stageOuterDag  S(dst_e) = A^dag L(x_e) - B^dag g5 Hop_eo g5 t2
//	ApplyNormal  Apply's passes into mid, then ApplyDagger's on mid but
//	             stageLoad: stageOuter left L(mid) in t3
//	PrepareSource stageFibre    t2 = B A^{-1} L(eta_o)
//	             stagePrepare   S(bhat_e) = L(bhat_e) - Hop_eo t2
//	Reconstruct  stageB, then
//	             stageRecon     S(psi_o) = A^{-1} (L(eta_o) - Hop_oe t1)
//
// Only a hop reads other sites, and it reads the previous pass's vector,
// so the sites of a pass are independent and any split of the range over
// workers gives the same bits.
type schurStage uint8

const (
	stageB schurStage = iota
	stageInner
	stageOuter
	stageLoad
	stageInnerDag
	stageOuterDag
	stageFibre
	stagePrepare
	stageRecon
)

// applyNormal sets dst[j] = Dhat^dagger Dhat src[j] for every system, on
// fields view reads as lanes, two systems to a pass where k has the pair
// layout: to the bit ApplyDagger of Apply, whose passes it runs, as t3
// holds the same L(mid) whether stageOuter left it or stageLoad loaded it.
func applyNormal[F float32 | float64, T complex64 | complex128](k *schur[F], dst, src [][]T, view func([]T) []cx[F], workers int) {
	if len(dst) != len(src) {
		panic("dirac: ApplyNormal system count mismatch")
	}
	half := len(k.mid[0])
	for j := 0; j < len(src); {
		w := 1
		if k.pair != nil && j+1 < len(src) {
			w = 2
		}
		var d, s [2][]cx[F]
		for i := range w {
			if len(dst[j+i]) != half || len(src[j+i]) != half {
				panic("dirac: ApplyNormal size mismatch")
			}
			d[i], s[i] = view(dst[j+i]), view(src[j+i])
		}
		two := w == 2
		k.pass(stageB, two, [2][]cx[F]{}, s, workers)
		k.pass(stageInner, two, [2][]cx[F]{}, [2][]cx[F]{}, workers)
		k.pass(stageOuter, two, k.mid, s, workers)
		k.pass(stageInnerDag, two, [2][]cx[F]{}, [2][]cx[F]{}, workers)
		k.pass(stageOuterDag, two, d, k.mid, workers)
		j += w
	}
}

// run makes one pass over the parity block, split workers wide.
func (k *schur[F]) run(st schurStage, dst, src []cx[F], workers int) {
	k.pass(st, false, [2][]cx[F]{dst}, [2][]cx[F]{src}, workers)
}

// pass is run for one system, or with two for a pair in the pair layout:
// the same stages, each fibre pass on both systems at once.
func (k *schur[F]) pass(st schurStage, two bool, dst, src [2][]cx[F], workers int) {
	k.stage, k.two, k.dst, k.src = st, two, dst, src
	linalg.For(k.halfVol, workers, k.sites)
	k.dst, k.src = [2][]cx[F]{}, [2][]cx[F]{}
}

// runSites is the body of every pass: sites [lo, hi) of the pass's parity
// block. A pair runs the passes of Apply and ApplyDagger only.
func (k *schur[F]) runSites(lo, hi int) {
	t1, t2, t3, dst, src := k.t1, k.t2, k.t3, k.dst, k.src
	half := k.halfVol * SpinorLen
	for i := lo; i < hi; i++ {
		off := i * SpinorLen
		switch k.stage {
		case stageB:
			k.load(t3, i, src, off, half)
			k.fibreBA(t1, t3, i, k.b5, k.c5, false)
		case stageInner:
			k.fibreHop(t2, t1, 1, i, false)
			k.fibreAInv(t3, t2, i, false)
			k.fibreBA(t2, t3, i, k.b5, k.c5, false)
		case stageOuter:
			k.fibreHop(t3, t2, 0, i, false)
			k.load(t1, i, src, off, half)
			k.fibreBAxpy(t3, t1, i, k.a, k.c, false)
			k.store(dst, off, half, t3, i)
		case stageLoad:
			k.load(t3, i, src, off, half)
		case stageInnerDag:
			k.fibreHop(t2, t3, 1, i, true)
			k.fibreBA(t1, t2, i, k.b5, k.c5, true)
			k.fibreAInv(t2, t1, i, true)
		case stageOuterDag:
			k.fibreHop(t3, t2, 0, i, true)
			k.fibreBA(t1, t3, i, k.b5, k.c5, true)
			k.load(t3, i, src, off, half)
			k.fibreBAxpy(t1, t3, i, k.a, k.c, true)
			k.store(dst, off, half, t1, i)
		case stageFibre:
			k.load(t1, i, src, off, half)
			k.fibreAInv(t3, t1, i, false)
			k.fibreBA(t2, t3, i, k.b5, k.c5, false)
		case stagePrepare:
			k.fibreHop(t3, t2, 0, i, false)
			k.load(t1, i, dst, off, half)
			k.fibreAxpy(t1, t3, i)
			k.store(dst, off, half, t1, i)
		case stageRecon:
			// dst is the full field: the odd site's own place in it.
			k.fibreHop(t2, t1, 1, i, false)
			k.load(t3, i, src, off, half)
			k.fibreAxpy(t3, t2, i)
			k.fibreAInv(t2, t3, i, false)
			k.store(dst, int(k.oddLex[i])*SpinorLen, 2*half, t2, i)
		}
	}
}

// spinor is one site's twelve components, spin slowest.
func spinor[F float32 | float64](f []cx[F], off int) *[SpinorLen]cx[F] {
	return (*[SpinorLen]cx[F])(f[off:])
}

// slot is slice l's lane of a fibre's block, as an array whose index
// plane*laneW is in range for every plane: the fibre loops below index it
// with constant strides and no bounds checks.
func slot[F float32 | float64](fb []F, l int) *[slotLen]F {
	return (*[slotLen]F)(fb[l:])
}

// slotLen reaches the last plane of a block from its first lane.
const slotLen = (2*SpinorLen-1)*laneW + 1

// load sets the fibre of site i in f to a caller's field whose slice s
// of the site starts at off + s*stride: src[0]'s, or in a pair both
// systems' fields.
func (k *schur[F]) load(f []F, i int, src [2][]cx[F], off, stride int) {
	last := off + (k.ls-1)*stride + SpinorLen - 1
	if k.two {
		_, _ = src[0][last], src[1][last]
		k.pair.load(&k.pairFibre(f, i)[0], &src[0][off].re, &src[1][off].re, stride, k.ls)
		return
	}
	fb := f[i*k.fib:][:k.fib]
	if v := k.vec; v != nil && v.load != nil {
		_ = src[0][last]
		v.load(&fb[0], &src[0][off].re, stride, k.ls)
		return
	}
	for s, l := range k.lane {
		v, o := spinor(src[0], off+s*stride), slot(fb, l)
		for j := range v {
			o[2*j*laneW], o[(2*j+1)*laneW] = v[j].re, v[j].im
		}
	}
}

// store writes the fibre of site i in f back to a caller's field, or to
// both systems' fields, laid out as for load.
func (k *schur[F]) store(dst [2][]cx[F], off, stride int, f []F, i int) {
	last := off + (k.ls-1)*stride + SpinorLen - 1
	if k.two {
		_, _ = dst[0][last], dst[1][last]
		k.pair.store(&dst[0][off].re, &dst[1][off].re, &k.pairFibre(f, i)[0], stride, k.ls)
		return
	}
	fb := f[i*k.fib:][:k.fib]
	if v := k.vec; v != nil && v.store != nil {
		_ = dst[0][last]
		v.store(&dst[0][off].re, &fb[0], stride, k.ls)
		return
	}
	for s, l := range k.lane {
		v, o := spinor(dst[0], off+s*stride), slot(fb, l)
		for j := range v {
			v[j] = cx[F]{o[2*j*laneW], o[(2*j+1)*laneW]}
		}
	}
}

// chiNeighbours returns, for slice s, the slices feeding the P+ (spins
// 0,1) and P- (spins 2,3) sectors of chi (or chi^dagger) and their
// weights: 1 in the bulk, wrap = -m across the chiral boundary.
func chiNeighbours[F float32 | float64](s, ls int, wrap F, dagger bool) (sp int, pw F, sm int, mw F) {
	sp, sm = s-1, s+1
	if dagger {
		sp, sm = s+1, s-1
	}
	pw, mw = 1, 1
	if sp < 0 {
		sp, pw = ls-1, wrap
	} else if sp >= ls {
		sp, pw = 0, wrap
	}
	if sm >= ls {
		sm, mw = 0, wrap
	} else if sm < 0 {
		sm, mw = ls-1, wrap
	}
	return sp, pw, sm, mw
}

// fibreBA sets dst = (w0 + w1*chi) src, or its dagger, on the fibre of
// site i: B for (b5, c5), A for (a, c). The weights are real and scale the
// parts one by one, w0*x + w1*(w*chi); a product by (w, 0) as a complex
// number would differ in the sign of some zeros (DESIGN.md s19). Planes
// 0-11 are the P+ sector, 12-23 the P- one. dst must not alias src.
func (k *schur[F]) fibreBA(dst, src []F, i int, w0, w1 F, dagger bool) {
	if p := k.pair; k.two {
		p.ba(&k.pairFibre(dst, i)[0], &k.pairFibre(src, i)[0], &p.chi[0], &p.keep[0], k.groups, w0, w1, dagger)
		return
	}
	d, x := dst[i*k.fib:][:k.fib], src[i*k.fib:][:k.fib]
	if v := k.vec; v != nil && v.ba != nil {
		v.ba(&d[0], &x[0], &k.chi[0], &k.keep[0], k.groups, w0, w1, dagger)
		return
	}
	for s, l := range k.lane {
		sp, pw, sm, mw := chiNeighbours(s, k.ls, -k.m, dagger)
		o, xs, up, dn := slot(d, l), slot(x, l), slot(x, k.lane[sp]), slot(x, k.lane[sm])
		for p := 0; p < SpinorLen*laneW; p += laneW {
			o[p] = w0*xs[p] + w1*(pw*up[p])
		}
		for p := SpinorLen * laneW; p < slotLen; p += laneW {
			o[p] = w0*xs[p] + w1*(mw*dn[p])
		}
	}
}

// fibreBAxpy sets z = (-1)*z + (w0 + w1*chi) y on the fibre of site i:
// fibreBA into a temporary, then the axpy of fibreAxpy, with the same
// roundings. z must not alias y.
func (k *schur[F]) fibreBAxpy(z, y []F, i int, w0, w1 F, dagger bool) {
	if p := k.pair; k.two {
		p.baxpy(&k.pairFibre(z, i)[0], &k.pairFibre(y, i)[0], &p.chi[0], &p.keep[0], k.groups, w0, w1, dagger)
		return
	}
	zf, x := z[i*k.fib:][:k.fib], y[i*k.fib:][:k.fib]
	if v := k.vec; v != nil && v.baxpy != nil {
		v.baxpy(&zf[0], &x[0], &k.chi[0], &k.keep[0], k.groups, w0, w1, dagger)
		return
	}
	minus := cx[F]{-1, 0}
	for s, l := range k.lane {
		sp, pw, sm, mw := chiNeighbours(s, k.ls, -k.m, dagger)
		o, xs, nb := slot(zf, l), slot(x, l), slot(x, k.lane[sp])
		wt := pw
		for p := 0; p < slotLen; p += 2 * laneW {
			if p == SpinorLen*laneW {
				nb, wt = slot(x, k.lane[sm]), mw
			}
			ba := cx[F]{w0*xs[p] + w1*(wt*nb[p]), w0*xs[p+laneW] + w1*(wt*nb[p+laneW])}
			v := minus.times(cx[F]{o[p], o[p+laneW]}).add(ba)
			o[p], o[p+laneW] = v.re, v.im
		}
	}
}

// fibreAInv sets dst = A^{-1} src (or A^{-dagger} src) on the fibre of
// site i via the dense fifth-dimension inverses, each part a sum from +0
// over the non-zero weights in slice order: a zero weight is skipped,
// never multiplied, so an infinite or NaN slice reaches only the slices
// its weights do. A plane's four output lanes accumulate together, from
// the inverses' padded columns, whose zero padding leaves the padding
// lanes +0. The vector body makes the skip a mask: it adds the product
// ANDed with the weight's non-zero mask, a +0 where a weight is zero,
// which leaves a sum from +0 as it was (DESIGN.md s19). dst must not alias
// src.
func (k *schur[F]) fibreAInv(dst, src []F, i int, dagger bool) {
	if p := k.pair; k.two {
		cP, cM := p.colP, p.colM
		if dagger {
			cP, cM = cM, cP
		}
		p.aInv(&k.pairFibre(dst, i)[0], &k.pairFibre(src, i)[0], &cP[0], &cM[0], k.ls)
		return
	}
	cP, cM := k.colP, k.colM
	if dagger {
		cP, cM = cM, cP
	}
	d, x := dst[i*k.fib:][:k.fib], src[i*k.fib:][:k.fib]
	if v := k.vec; v != nil && v.aInv != nil {
		v.aInv(&d[0], &x[0], &cP[0], &cM[0], &k.lane[0], k.ls)
		return
	}
	lane, groups := k.lane, k.groups
	pad := groups * laneW
	for g := 0; g < groups; g++ {
		dg := d[g*2*SpinorLen*laneW:][:2*SpinorLen*laneW]
		for q := 0; q < 2*SpinorLen; q++ {
			cols := cP[g*laneW:]
			if q >= SpinorLen {
				cols = cM[g*laneW:]
			}
			xq := x[q*laneW:]
			var a0, a1, a2, a3 F
			for sIn, l := range lane {
				v := xq[l]
				c := (*[laneW]F)(cols[sIn*pad:])
				if c[0] != 0 {
					a0 += c[0] * v
				}
				if c[1] != 0 {
					a1 += c[1] * v
				}
				if c[2] != 0 {
					a2 += c[2] * v
				}
				if c[3] != 0 {
					a3 += c[3] * v
				}
			}
			o := (*[laneW]F)(dg[q*laneW:])
			o[0], o[1], o[2], o[3] = a0, a1, a2, a3
		}
	}
}

// fibreAxpy sets y = (-1)*x + y on the fibre of site i, spelled as the
// complex axpy it replaces - a full complex product by (-1, 0), whose
// 0*x terms decide the sign of a zero - so that signed zeros come out the
// same.
func (k *schur[F]) fibreAxpy(y, x []F, i int) {
	yf, xf := y[i*k.fib:][:k.fib], x[i*k.fib:][:k.fib]
	if v := k.vec; v != nil && v.axpy != nil {
		v.axpy(&yf[0], &xf[0], &k.keep[0], k.groups)
		return
	}
	minus := cx[F]{-1, 0}
	for _, l := range k.lane {
		o, xs := slot(yf, l), slot(xf, l)
		for p := 0; p < slotLen; p += 2 * laneW {
			v := minus.times(cx[F]{xs[p], xs[p+laneW]}).add(cx[F]{o[p], o[p+laneW]})
			o[p], o[p+laneW] = v.re, v.im
		}
	}
}

// fibreHop sets the fibre of site i of parity pOut in dst to the
// parity-flipping Wilson hopping term (with its -1/2) of src, each link
// fetched once for all Ls slices. With g5 it is gamma_5 Hop gamma_5: the
// input gamma_5 flips the sign the projector sees, the output gamma_5
// negates the lower spins once all eight directions have accumulated.
//
// Every accumulator starts at +0 and only ever has terms subtracted from
// it, so an output that is zero is +0 whatever the signs of the zeros
// that went in: the specialised projections may differ from the generic
// hop in the sign of an intermediate zero and still reproduce its output
// bit for bit (DESIGN.md, "Kernels").
//
// The vector body runs the same operations in the same order on every
// lane, w slices per instruction; hopGo is the portable body and the
// reference it is held to, as the loops of the passes above are for
// theirs.
func (k *schur[F]) fibreHop(dst, src []F, pOut, i int, g5 bool) {
	hops := k.hops[pOut][2*lattice.NDim*i:][:2*lattice.NDim]
	if p := k.pair; k.two {
		_ = src[k.halfVol*2*k.fib-1]
		p.hop(&k.pairFibre(dst, i)[0], &src[0], &hops[0], &k.u, &p.keep[0], k.ls, g5)
		return
	}
	if v := k.vec; v != nil && v.hop != nil {
		v.hop(&dst[i*k.fib:][:k.fib][0], &src[0], &hops[0], &k.u, &k.keep[0], k.ls, g5)
		return
	}
	k.hopGo(dst[i*k.fib:][:k.fib], src, hops, g5)
}

// hopGo is fibreHop slice by slice: each lane gathered into a spinor, the
// halfSpinor hop, and the result scattered back.
func (k *schur[F]) hopGo(out, src []F, hops []lattice.Hop, g5 bool) {
	var hs, us halfSpinor[F]
	for _, l := range k.lane {
		var o, v [SpinorLen]cx[F]
		for d, h := range hops {
			pd := d
			if g5 {
				pd ^= 1
			}
			in := src[int(h.Site)*k.fib+l:]
			for j := range v {
				v[j] = cx[F]{in[2*j*laneW], in[(2*j+1)*laneW]}
			}
			hs.project(&v, pd)
			if d&1 == 0 {
				us.mul(&k.u[d/2][h.Link], &hs)
			} else {
				us.mulAdj(&k.u[d/2][h.Link], &hs)
			}
			us.reconstruct(&o, d)
		}
		if g5 {
			for j := 6; j < SpinorLen; j++ {
				o[j] = cx[F]{-o[j].re, -o[j].im}
			}
		}
		for j := range o {
			out[l+2*j*laneW], out[l+(2*j+1)*laneW] = o[j].re, o[j].im
		}
	}
}

// The arithmetic of a hop, one complex number at a time. Each is small
// enough to inline, so a body built of them on constant indices compiles
// to straight-line loads off one base register (DESIGN.md s19).

func (a cx[F]) add(b cx[F]) cx[F] { return cx[F]{a.re + b.re, a.im + b.im} }
func (a cx[F]) sub(b cx[F]) cx[F] { return cx[F]{a.re - b.re, a.im - b.im} }

// addI returns a + i*b, subI a - i*b: a swap of b's parts and a sign.
func (a cx[F]) addI(b cx[F]) cx[F] { return cx[F]{a.re - b.im, a.im + b.re} }
func (a cx[F]) subI(b cx[F]) cx[F] { return cx[F]{a.re + b.im, a.im - b.re} }

// times returns a*b. conjTimes returns conj(a)*b: conjugating an entry and
// then subtracting its imaginary product is adding it, to the bit, so the
// adjoint costs no negation.
func (a cx[F]) times(b cx[F]) cx[F]     { return cx[F]{a.re*b.re - a.im*b.im, a.re*b.im + a.im*b.re} }
func (a cx[F]) conjTimes(b cx[F]) cx[F] { return cx[F]{a.re*b.re + a.im*b.im, a.re*b.im - a.im*b.re} }

// scale returns w*a for a real weight: no complex multiply.
func (a cx[F]) scale(w F) cx[F] { return cx[F]{w * a.re, w * a.im} }

// halfSpinor is a spin-projected spinor: the two colour vectors that
// survive (1 +- gamma_mu), h0 in components 0..2 and h1 in 3..5.
type halfSpinor[F float32 | float64] [6]cx[F]

// project sets h to the upper two spins of (1 + s*gamma_mu) v for hop
// direction d = 2*mu + b, where b = 0 (the forward hop) projects with
// s = -1 and b = 1 (the backward hop) with s = +1. In the DeGrand-Rossi
// basis every gamma_mu entry is +-1 or +-i, so the projection is an add
// or a subtract of a swapped component: no multiply, exactly the values
// the generic hop forms by multiplying the phases out. The colours
// are written out because a loop over them costs a tenth of the float32
// kernel (DESIGN.md s19).
func (h *halfSpinor[F]) project(v *[SpinorLen]cx[F], d int) {
	switch d {
	case 0: // x: h0 = v0 - i v3, h1 = v1 - i v2
		h[0], h[1], h[2] = v[0].subI(v[9]), v[1].subI(v[10]), v[2].subI(v[11])
		h[3], h[4], h[5] = v[3].subI(v[6]), v[4].subI(v[7]), v[5].subI(v[8])
	case 1: // x: h0 = v0 + i v3, h1 = v1 + i v2
		h[0], h[1], h[2] = v[0].addI(v[9]), v[1].addI(v[10]), v[2].addI(v[11])
		h[3], h[4], h[5] = v[3].addI(v[6]), v[4].addI(v[7]), v[5].addI(v[8])
	case 2: // y: h0 = v0 + v3, h1 = v1 - v2
		h[0], h[1], h[2] = v[0].add(v[9]), v[1].add(v[10]), v[2].add(v[11])
		h[3], h[4], h[5] = v[3].sub(v[6]), v[4].sub(v[7]), v[5].sub(v[8])
	case 3: // y: h0 = v0 - v3, h1 = v1 + v2
		h[0], h[1], h[2] = v[0].sub(v[9]), v[1].sub(v[10]), v[2].sub(v[11])
		h[3], h[4], h[5] = v[3].add(v[6]), v[4].add(v[7]), v[5].add(v[8])
	case 4: // z: h0 = v0 - i v2, h1 = v1 + i v3
		h[0], h[1], h[2] = v[0].subI(v[6]), v[1].subI(v[7]), v[2].subI(v[8])
		h[3], h[4], h[5] = v[3].addI(v[9]), v[4].addI(v[10]), v[5].addI(v[11])
	case 5: // z: h0 = v0 + i v2, h1 = v1 - i v3
		h[0], h[1], h[2] = v[0].addI(v[6]), v[1].addI(v[7]), v[2].addI(v[8])
		h[3], h[4], h[5] = v[3].subI(v[9]), v[4].subI(v[10]), v[5].subI(v[11])
	case 6: // t: h0 = v0 - v2, h1 = v1 - v3
		h[0], h[1], h[2] = v[0].sub(v[6]), v[1].sub(v[7]), v[2].sub(v[8])
		h[3], h[4], h[5] = v[3].sub(v[9]), v[4].sub(v[10]), v[5].sub(v[11])
	case 7: // t: h0 = v0 + v2, h1 = v1 + v3
		h[0], h[1], h[2] = v[0].add(v[6]), v[1].add(v[7]), v[2].add(v[8])
		h[3], h[4], h[5] = v[3].add(v[9]), v[4].add(v[10]), v[5].add(v[11])
	}
}

// reconstruct accumulates -(1 + s*gamma_mu) applied to the transported
// half spinor into o, for hop direction d as in project; h arrives halved
// (mul, mulAdj), which is the hopping term's 1/2. The upper spins take -h
// whatever the direction, the lower spins that times s*conj(phase), which
// again is a signed swap.
func (h *halfSpinor[F]) reconstruct(o *[SpinorLen]cx[F], d int) {
	o[0], o[1], o[2] = o[0].sub(h[0]), o[1].sub(h[1]), o[2].sub(h[2])
	o[3], o[4], o[5] = o[3].sub(h[3]), o[4].sub(h[4]), o[5].sub(h[5])
	switch d {
	case 0: // x: o3 -= i h0, o2 -= i h1
		o[9], o[10], o[11] = o[9].subI(h[0]), o[10].subI(h[1]), o[11].subI(h[2])
		o[6], o[7], o[8] = o[6].subI(h[3]), o[7].subI(h[4]), o[8].subI(h[5])
	case 1: // x: o3 += i h0, o2 += i h1
		o[9], o[10], o[11] = o[9].addI(h[0]), o[10].addI(h[1]), o[11].addI(h[2])
		o[6], o[7], o[8] = o[6].addI(h[3]), o[7].addI(h[4]), o[8].addI(h[5])
	case 2: // y: o3 -= h0, o2 += h1
		o[9], o[10], o[11] = o[9].sub(h[0]), o[10].sub(h[1]), o[11].sub(h[2])
		o[6], o[7], o[8] = o[6].add(h[3]), o[7].add(h[4]), o[8].add(h[5])
	case 3: // y: o3 += h0, o2 -= h1
		o[9], o[10], o[11] = o[9].add(h[0]), o[10].add(h[1]), o[11].add(h[2])
		o[6], o[7], o[8] = o[6].sub(h[3]), o[7].sub(h[4]), o[8].sub(h[5])
	case 4: // z: o2 -= i h0, o3 += i h1
		o[6], o[7], o[8] = o[6].subI(h[0]), o[7].subI(h[1]), o[8].subI(h[2])
		o[9], o[10], o[11] = o[9].addI(h[3]), o[10].addI(h[4]), o[11].addI(h[5])
	case 5: // z: o2 += i h0, o3 -= i h1
		o[6], o[7], o[8] = o[6].addI(h[0]), o[7].addI(h[1]), o[8].addI(h[2])
		o[9], o[10], o[11] = o[9].subI(h[3]), o[10].subI(h[4]), o[11].subI(h[5])
	case 6: // t: o2 += h0, o3 += h1
		o[6], o[7], o[8] = o[6].add(h[0]), o[7].add(h[1]), o[8].add(h[2])
		o[9], o[10], o[11] = o[9].add(h[3]), o[10].add(h[4]), o[11].add(h[5])
	case 7: // t: o2 -= h0, o3 -= h1
		o[6], o[7], o[8] = o[6].sub(h[0]), o[7].sub(h[1]), o[8].sub(h[2])
		o[9], o[10], o[11] = o[9].sub(h[3]), o[10].sub(h[4]), o[11].sub(h[5])
	}
}

// mul sets w = (u h)/2 for both colour vectors of h, each row summed left
// to right. The rows are written out like the colours of project, and for
// the same reason.
func (w *halfSpinor[F]) mul(u *link[F], h *halfSpinor[F]) {
	m0, m1, m2 := u[0][0], u[0][1], u[0][2]
	w[0] = m0.times(h[0]).add(m1.times(h[1])).add(m2.times(h[2])).scale(0.5)
	w[3] = m0.times(h[3]).add(m1.times(h[4])).add(m2.times(h[5])).scale(0.5)
	m0, m1, m2 = u[1][0], u[1][1], u[1][2]
	w[1] = m0.times(h[0]).add(m1.times(h[1])).add(m2.times(h[2])).scale(0.5)
	w[4] = m0.times(h[3]).add(m1.times(h[4])).add(m2.times(h[5])).scale(0.5)
	m0, m1, m2 = u[2][0], u[2][1], u[2][2]
	w[2] = m0.times(h[0]).add(m1.times(h[1])).add(m2.times(h[2])).scale(0.5)
	w[5] = m0.times(h[3]).add(m1.times(h[4])).add(m2.times(h[5])).scale(0.5)
}

// mulAdj sets w = (u^dagger h)/2: a transposed read.
func (w *halfSpinor[F]) mulAdj(u *link[F], h *halfSpinor[F]) {
	m0, m1, m2 := u[0][0], u[1][0], u[2][0]
	w[0] = m0.conjTimes(h[0]).add(m1.conjTimes(h[1])).add(m2.conjTimes(h[2])).scale(0.5)
	w[3] = m0.conjTimes(h[3]).add(m1.conjTimes(h[4])).add(m2.conjTimes(h[5])).scale(0.5)
	m0, m1, m2 = u[0][1], u[1][1], u[2][1]
	w[1] = m0.conjTimes(h[0]).add(m1.conjTimes(h[1])).add(m2.conjTimes(h[2])).scale(0.5)
	w[4] = m0.conjTimes(h[3]).add(m1.conjTimes(h[4])).add(m2.conjTimes(h[5])).scale(0.5)
	m0, m1, m2 = u[0][2], u[1][2], u[2][2]
	w[2] = m0.conjTimes(h[0]).add(m1.conjTimes(h[1])).add(m2.conjTimes(h[2])).scale(0.5)
	w[5] = m0.conjTimes(h[3]).add(m1.conjTimes(h[4])).add(m2.conjTimes(h[5])).scale(0.5)
}
