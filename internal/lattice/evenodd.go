package lattice

// Even-odd (red-black) site ordering. The preconditioned solver works on
// fields that store all even sites contiguously followed by all odd sites;
// this file provides the bijection between that ordering and the
// lexicographic ordering used by the naive operators, plus checkerboarded
// neighbour lookups.

// EvenOdd holds the red-black reindexing tables for a Geometry.
type EvenOdd struct {
	G *Geometry
	// LexToEO[s] is the index of lexicographic site s within its parity
	// block (0..Vol/2-1).
	LexToEO []int32
	// EOToLex[p][i] is the lexicographic index of the i-th site of parity p.
	EOToLex [2][]int32
	// Hops[p][2*NDim*i+2*mu+b] is the stencil entry of the i-th site of
	// parity p in direction mu, forward for b = 0 and backward for b = 1:
	// the checkerboarded kernels walk it instead of chaining Fwd/Bwd and
	// LexToEO lookups per hop.
	Hops [2][]Hop
}

// Hop is one entry of the checkerboarded stencil table.
type Hop struct {
	// Site is the neighbour's index within the opposite parity block.
	Site int32
	// Link is the lexicographic site whose link U_mu the hop transports
	// through: the site itself going forward, the neighbour going backward.
	Link int32
}

// NewEvenOdd builds the reindexing tables.
func NewEvenOdd(g *Geometry) *EvenOdd {
	eo := &EvenOdd{
		G:       g,
		LexToEO: make([]int32, g.Vol),
	}
	eo.EOToLex[0] = make([]int32, 0, g.Vol/2)
	eo.EOToLex[1] = make([]int32, 0, g.Vol/2)
	for s := 0; s < g.Vol; s++ {
		p := g.Parity(s)
		eo.LexToEO[s] = int32(len(eo.EOToLex[p]))
		eo.EOToLex[p] = append(eo.EOToLex[p], int32(s))
	}
	for p := range eo.Hops {
		eo.Hops[p] = make([]Hop, 0, 2*NDim*len(eo.EOToLex[p]))
		for _, lex := range eo.EOToLex[p] {
			for mu := 0; mu < NDim; mu++ {
				fw, bw := g.fwd[lex][mu], g.bwd[lex][mu]
				eo.Hops[p] = append(eo.Hops[p],
					Hop{Site: eo.LexToEO[fw], Link: lex},
					Hop{Site: eo.LexToEO[bw], Link: bw})
			}
		}
	}
	return eo
}

// HalfVol returns the number of sites in one parity block.
func (eo *EvenOdd) HalfVol() int { return eo.G.Vol / 2 }

// GatherParity extracts the parity-p sites of a lexicographic field with
// the given number of complex components per site into dst (contiguous
// even-odd ordering).
func (eo *EvenOdd) GatherParity(p int, src []complex128, perSite int, dst []complex128) {
	if len(src) != eo.G.Vol*perSite || len(dst) != eo.HalfVol()*perSite {
		panic("lattice: GatherParity size mismatch")
	}
	for i, lex := range eo.EOToLex[p] {
		copy(dst[i*perSite:(i+1)*perSite], src[int(lex)*perSite:(int(lex)+1)*perSite])
	}
}

// ScatterParity writes a parity block back into a lexicographic field.
func (eo *EvenOdd) ScatterParity(p int, src []complex128, perSite int, dst []complex128) {
	if len(dst) != eo.G.Vol*perSite || len(src) != eo.HalfVol()*perSite {
		panic("lattice: ScatterParity size mismatch")
	}
	for i, lex := range eo.EOToLex[p] {
		copy(dst[int(lex)*perSite:(int(lex)+1)*perSite], src[i*perSite:(i+1)*perSite])
	}
}
