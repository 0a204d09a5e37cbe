// Subdomain kernel: the per-rank half of the four-step halo pipeline,
// factored out of the in-process Dist so a rank can live anywhere - a
// goroutine sharing the address space (Dist) or a worker process on the
// far end of a TCP connection (internal/wire). The split is exact: Dist
// is now a thin orchestration shell over []*Sub, and the wire workers
// run the same Sub methods, which is what makes the distributed operator
// bit-for-bit identical to the shared-memory one by construction.
package domain

import (
	"fmt"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// SubSpec is the serializable description of one rank's subdomain: the
// decomposition geometry plus the rank's slice of the gauge field and the
// one-time gauge-link halo. It is everything a worker process needs to
// reconstruct its Sub, and what the coordinator checkpoints so a lost
// rank can be restored onto a respawned process.
type SubSpec struct {
	Rank   int
	Coords [lattice.NDim]int
	Grid   [lattice.NDim]int
	Global [lattice.NDim]int
	Local  [lattice.NDim]int
	Mass   float64
	// U is the rank's local gauge links, [mu][localSite].
	U [lattice.NDim][]linalg.SU3
	// GhostLink[mu] holds U_mu on the lower neighbor's upper face (the
	// link entering our lower-boundary sites from behind), indexed by
	// lower-face position. Empty when mu is not partitioned.
	GhostLink [lattice.NDim][]linalg.SU3
}

// RankOf folds grid coordinates (periodically wrapped) into a rank id.
func RankOf(grid, coords [lattice.NDim]int) int {
	id := 0
	stride := 1
	for mu := 0; mu < lattice.NDim; mu++ {
		id += ((coords[mu] + grid[mu]) % grid[mu]) * stride
		stride *= grid[mu]
	}
	return id
}

// CoordsOf inverts RankOf.
func CoordsOf(grid [lattice.NDim]int, rank int) [lattice.NDim]int {
	var c [lattice.NDim]int
	for mu := 0; mu < lattice.NDim; mu++ {
		c[mu] = rank % grid[mu]
		rank /= grid[mu]
	}
	return c
}

// NeighborRank returns the rank one step along mu (dir 0 = lower, 1 =
// upper), with periodic wrap.
func (sp *SubSpec) NeighborRank(mu, dir int) int {
	c := sp.Coords
	if dir == 0 {
		c[mu]--
	} else {
		c[mu]++
	}
	return RankOf(sp.Grid, c)
}

// Partitioned reports whether direction mu is split across ranks.
func (sp *SubSpec) Partitioned(mu int) bool { return sp.Grid[mu] > 1 }

// FaceSites returns the number of sites on one face of dimension mu.
func (sp *SubSpec) FaceSites(mu int) int {
	n := 1
	for nu := 0; nu < lattice.NDim; nu++ {
		if nu != mu {
			n *= sp.Local[nu]
		}
	}
	return n
}

// BuildSpecs decomposes the gauge field over the grid into one spec per
// rank - the coordinator-side half of NewDist, exported so the wire
// layer can ship subdomains to worker processes and checkpoint them.
func BuildSpecs(u *gauge.Field, grid [lattice.NDim]int, mass float64) ([]SubSpec, error) {
	dec, err := lattice.Decompose(u.G.Dims, grid, 1)
	if err != nil {
		return nil, err
	}
	nRanks := dec.Ranks()
	specs := make([]SubSpec, nRanks)
	for r := 0; r < nRanks; r++ {
		sp := &specs[r]
		sp.Rank = r
		sp.Coords = CoordsOf(grid, r)
		sp.Grid = grid
		sp.Global = u.G.Dims
		sp.Local = dec.Local
		sp.Mass = mass
		lg, err := lattice.New(dec.Local)
		if err != nil {
			return nil, err
		}
		for mu := 0; mu < lattice.NDim; mu++ {
			sp.U[mu] = make([]linalg.SU3, lg.Vol)
			for s := 0; s < lg.Vol; s++ {
				lc := lg.Coords(s)
				var gc [lattice.NDim]int
				for nu := 0; nu < lattice.NDim; nu++ {
					gc[nu] = sp.Coords[nu]*dec.Local[nu] + lc[nu]
				}
				sp.U[mu][s] = u.U[mu][u.G.Index(gc)]
			}
		}
	}
	// One-time gauge-link halo: our lower-boundary backward hop needs
	// U_mu(x - mu), which lives on the lower neighbor's upper face.
	for r := range specs {
		sp := &specs[r]
		lg, err := lattice.New(dec.Local)
		if err != nil {
			return nil, err
		}
		for mu := 0; mu < lattice.NDim; mu++ {
			if !dec.Partitioned(mu) {
				continue
			}
			nb := &specs[sp.NeighborRank(mu, 0)]
			sp.GhostLink[mu] = make([]linalg.SU3, 0, sp.FaceSites(mu))
			for s := 0; s < lg.Vol; s++ {
				lc := lg.Coords(s)
				if lc[mu] != 0 {
					continue
				}
				lc[mu] = dec.Local[mu] - 1
				sp.GhostLink[mu] = append(sp.GhostLink[mu], nb.U[mu][lg.Index(lc)])
			}
		}
	}
	return specs, nil
}

// hopsPerSite is the stencil's leg count: forward and backward in each
// dimension, laid out [2*mu] = forward, [2*mu+1] = backward.
const hopsPerSite = 2 * lattice.NDim

// Sub is one rank's live subdomain state: geometry bookkeeping, gauge
// links, ghost buffers, and field scratch. Methods are not safe for
// concurrent use on one Sub; the orchestrator (Dist or a wire worker)
// serializes applications.
type Sub struct {
	Spec  SubSpec
	local *lattice.Geometry
	// Global lexicographic index of each local site (for scatter/gather).
	globalOf []int

	// field is the stencil's whole input in one array: the local source
	// followed by every ghost face. src and ghostSpin are views into it,
	// so a hop is one offset whether or not it crosses the rank edge.
	field []complex128
	// Ghost faces: ghostSpin[mu][dir] holds the neighbor face needed for
	// hops in direction mu (dir 0 = from the lower neighbor, 1 = upper).
	ghostSpin [lattice.NDim][2][]complex128

	// faceSites[mu][dir] lists local sites on the dir-face of dim mu.
	faceSites [lattice.NDim][2][]int

	// hops is the stencil table, hopsPerSite legs per local site in the
	// order dirac.WilsonSite takes them: NewSub resolves every (site, mu,
	// direction) to a spinor of field and a link once, so an application
	// never touches coordinates.
	hops []dirac.Leg

	interior []int // sites with no ghost dependence
	boundary []int // sites touching at least one partitioned face

	// peers is the halo message plan, fixed by NewSub (see HaloPeers).
	peers []HaloPeer

	src, dst []complex128 // local field storage; src is the head of field
}

// HaloPeer is one neighbor's share of a halo exchange: the neighbor's rank
// and the (mu, dir) faces bound for it, in (mu, dir) order.
type HaloPeer struct {
	Rank  int
	Faces [][2]int
}

// NewSub reconstructs the live subdomain from its spec.
func NewSub(spec SubSpec) (*Sub, error) {
	lg, err := lattice.New(spec.Local)
	if err != nil {
		return nil, err
	}
	gg, err := lattice.New(spec.Global)
	if err != nil {
		return nil, err
	}
	localLen := lg.Vol * spinorLen
	fieldLen := localLen
	for mu := 0; mu < lattice.NDim; mu++ {
		if len(spec.U[mu]) != lg.Vol {
			return nil, fmt.Errorf("domain: spec rank %d has %d U[%d] links, want %d",
				spec.Rank, len(spec.U[mu]), mu, lg.Vol)
		}
		if !spec.Partitioned(mu) {
			continue
		}
		if len(spec.GhostLink[mu]) != spec.FaceSites(mu) {
			return nil, fmt.Errorf("domain: spec rank %d has %d ghost links in %d, want %d",
				spec.Rank, len(spec.GhostLink[mu]), mu, spec.FaceSites(mu))
		}
		fieldLen += 2 * spec.FaceSites(mu) * spinorLen
	}
	sub := &Sub{Spec: spec, local: lg}
	sub.globalOf = make([]int, lg.Vol)
	for s := 0; s < lg.Vol; s++ {
		lc := lg.Coords(s)
		var gc [lattice.NDim]int
		for mu := 0; mu < lattice.NDim; mu++ {
			gc[mu] = spec.Coords[mu]*spec.Local[mu] + lc[mu]
		}
		sub.globalOf[s] = gg.Index(gc)
	}
	sub.field = make([]complex128, fieldLen)
	sub.src = sub.field[:localLen:localLen]
	sub.dst = make([]complex128, localLen)

	// The table starts as the periodic local stencil; each partitioned
	// dimension then redirects the legs that cross its two faces to the
	// ghost face (and, backward, to the ghost link).
	spinorAt := func(off int) *[spinorLen]complex128 { return (*[spinorLen]complex128)(sub.field[off:]) }
	sub.hops = make([]dirac.Leg, lg.Vol*hopsPerSite)
	for s := 0; s < lg.Vol; s++ {
		legs := sub.hops[s*hopsPerSite:]
		for mu := 0; mu < lattice.NDim; mu++ {
			bwd := lg.Bwd(s, mu)
			legs[2*mu] = dirac.Leg{Psi: spinorAt(lg.Fwd(s, mu) * spinorLen), U: &sub.Spec.U[mu][s]}
			legs[2*mu+1] = dirac.Leg{Psi: spinorAt(bwd * spinorLen), U: &sub.Spec.U[mu][bwd]}
		}
	}
	touched := make([]bool, lg.Vol)
	ghostAt := localLen
	for mu := 0; mu < lattice.NDim; mu++ {
		if !spec.Partitioned(mu) {
			continue
		}
		faceLen := spec.FaceSites(mu) * spinorLen
		lower, upper := ghostAt, ghostAt+faceLen
		sub.ghostSpin[mu][0] = sub.field[lower:upper:upper]
		sub.ghostSpin[mu][1] = sub.field[upper : upper+faceLen : upper+faceLen]
		ghostAt += 2 * faceLen
		for s := 0; s < lg.Vol; s++ {
			legs := sub.hops[s*hopsPerSite:]
			lc := lg.Coords(s)
			if lc[mu] == 0 {
				i := len(sub.faceSites[mu][0])
				sub.faceSites[mu][0] = append(sub.faceSites[mu][0], s)
				touched[s] = true
				legs[2*mu+1] = dirac.Leg{Psi: spinorAt(lower + i*spinorLen), U: &sub.Spec.GhostLink[mu][i]}
			}
			if lc[mu] == spec.Local[mu]-1 {
				i := len(sub.faceSites[mu][1])
				sub.faceSites[mu][1] = append(sub.faceSites[mu][1], s)
				touched[s] = true
				legs[2*mu].Psi = spinorAt(upper + i*spinorLen)
			}
		}
	}
	for s := 0; s < lg.Vol; s++ {
		if touched[s] {
			sub.boundary = append(sub.boundary, s)
		} else {
			sub.interior = append(sub.interior, s)
		}
	}
	for mu := 0; mu < lattice.NDim; mu++ {
		if !spec.Partitioned(mu) {
			continue
		}
		for dir := 0; dir < 2; dir++ {
			rank := spec.NeighborRank(mu, dir)
			i := 0
			for i < len(sub.peers) && sub.peers[i].Rank != rank {
				i++
			}
			if i == len(sub.peers) {
				sub.peers = append(sub.peers, HaloPeer{Rank: rank})
			}
			sub.peers[i].Faces = append(sub.peers[i].Faces, [2]int{mu, dir})
		}
	}
	return sub, nil
}

// HaloPeers returns the halo message plan: every neighbor rank in
// first-seen (mu, dir) order with the faces bound for it. It is the one
// answer to "which faces travel in which frame" - a coarse exchange sends
// one frame per peer, a fine one a frame per face, in this order - and
// the plan the wire workers send by and the communication model prices.
// The caller must not modify it.
func (sub *Sub) HaloPeers() []HaloPeer { return sub.peers }

// FaceLen returns the complex length of one spinor face in dimension mu.
func (sub *Sub) FaceLen(mu int) int { return len(sub.faceSites[mu][0]) * spinorLen }

// Face returns the local sites on the dir-face of dimension mu in face
// order - the order PackFace packs and the neighbor's ghost expects. The
// caller must not modify it.
func (sub *Sub) Face(mu, dir int) []int { return sub.faceSites[mu][dir] }

// Src returns the local source storage, for filling in place.
func (sub *Sub) Src() []complex128 { return sub.src }

// Dst returns the local result field after the stencil completes.
func (sub *Sub) Dst() []complex128 { return sub.dst }

// ScatterFrom fills the local source from a global field.
func (sub *Sub) ScatterFrom(global []complex128) {
	for s, g := range sub.globalOf {
		copy(sub.src[s*spinorLen:(s+1)*spinorLen], global[g*spinorLen:(g+1)*spinorLen])
	}
}

// GatherTo writes the local result into a global field.
func (sub *Sub) GatherTo(global []complex128) {
	for s, g := range sub.globalOf {
		copy(global[g*spinorLen:(g+1)*spinorLen], sub.dst[s*spinorLen:(s+1)*spinorLen])
	}
}

// PackFace copies the dir-face of dimension mu from the local source into
// buf (length FaceLen(mu)) - step 1 of the pipeline.
func (sub *Sub) PackFace(mu, dir int, buf []complex128) {
	for i, s := range sub.faceSites[mu][dir] {
		copy(buf[i*spinorLen:(i+1)*spinorLen], sub.src[s*spinorLen:(s+1)*spinorLen])
	}
}

// SetGhost installs a received neighbor face (dir 0 = from the lower
// neighbor, 1 = upper).
func (sub *Sub) SetGhost(mu, dir int, data []complex128) {
	copy(sub.ghostSpin[mu][dir], data)
}

// StencilInterior applies the operator on every site with no ghost
// dependence - step 3, overlappable with communication.
func (sub *Sub) StencilInterior() {
	for _, s := range sub.interior {
		sub.siteStencil(s)
	}
}

// StencilBoundary completes the halo sites once every ghost face has been
// installed - step 4.
func (sub *Sub) StencilBoundary() {
	for _, s := range sub.boundary {
		sub.siteStencil(s)
	}
}

// siteStencil applies the Wilson stencil at one local site: the site's
// eight table legs - per dimension the forward hop (1-gamma) U_mu(x)
// psi(x+mu) and the backward hop (1+gamma) U_mu(x-mu)^dag psi(x-mu), each
// spinor in the local source or a ghost face - through dirac.WilsonSite.
func (sub *Sub) siteStencil(s int) {
	dirac.WilsonSite((*[spinorLen]complex128)(sub.dst[s*spinorLen:]), (*[spinorLen]complex128)(sub.src[s*spinorLen:]),
		(*dirac.Legs)(sub.hops[s*hopsPerSite:]), 4+sub.Spec.Mass, false)
}
