// Package lattice provides the four-dimensional space-time grid underneath
// the Dirac stencil: lexicographic and even/odd (red-black) site indexing,
// periodic neighbour tables, and the MPI-style domain decomposition
// bookkeeping (local volumes, halo surface areas) consumed by the
// communication and performance models.
package lattice

import (
	"fmt"
	"math"
)

// NDim is the number of space-time dimensions of the 4-D lattice; the
// domain-wall fifth dimension is handled at the field level, not here.
const NDim = 4

// Geometry describes a periodic X*Y*Z*T lattice with precomputed
// neighbour and parity tables. The time direction is index 3, matching the
// gamma-matrix ordering in package linalg.
type Geometry struct {
	Dims [NDim]int // extent in x, y, z, t
	Vol  int       // total number of 4-D sites

	fwd    [][NDim]int32 // fwd[site][mu]: site + mu-hat with periodic wrap
	bwd    [][NDim]int32 // bwd[site][mu]: site - mu-hat with periodic wrap
	parity []uint8       // (x+y+z+t) mod 2 per site
}

// New builds a Geometry for the given extents. All extents must be >= 2 so
// that forward and backward neighbours are distinct, and even so that the
// red-black decomposition splits the lattice exactly in half.
func New(dims [NDim]int) (*Geometry, error) {
	vol := 1
	for mu, d := range dims {
		if d < 2 {
			return nil, fmt.Errorf("lattice: extent %d in direction %d; need >= 2", d, mu)
		}
		if d%2 != 0 {
			return nil, fmt.Errorf("lattice: extent %d in direction %d must be even for red-black preconditioning", d, mu)
		}
		if vol > math.MaxInt32/d {
			return nil, fmt.Errorf("lattice: extents %v have more sites than an int32 neighbour table indexes", dims)
		}
		vol *= d
	}
	g := &Geometry{
		Dims:   dims,
		Vol:    vol,
		fwd:    make([][NDim]int32, vol),
		bwd:    make([][NDim]int32, vol),
		parity: make([]uint8, vol),
	}
	var c [NDim]int
	for s := 0; s < vol; s++ {
		g.coords(s, &c)
		sum := 0
		for mu := 0; mu < NDim; mu++ {
			sum += c[mu]
			cc := c
			cc[mu] = (c[mu] + 1) % dims[mu]
			g.fwd[s][mu] = int32(g.Index(cc))
			cc[mu] = (c[mu] - 1 + dims[mu]) % dims[mu]
			g.bwd[s][mu] = int32(g.Index(cc))
		}
		g.parity[s] = uint8(sum % 2)
	}
	return g, nil
}

// MustNew is New but panics on error; for tests and fixed-size examples.
func MustNew(x, y, z, t int) *Geometry {
	g, err := New([NDim]int{x, y, z, t})
	if err != nil {
		panic(err)
	}
	return g
}

// Index maps coordinates to the lexicographic site index with x fastest.
func (g *Geometry) Index(c [NDim]int) int {
	return c[0] + g.Dims[0]*(c[1]+g.Dims[1]*(c[2]+g.Dims[2]*c[3]))
}

// Coords returns the coordinates of a lexicographic site index.
func (g *Geometry) Coords(s int) [NDim]int {
	var c [NDim]int
	g.coords(s, &c)
	return c
}

func (g *Geometry) coords(s int, c *[NDim]int) {
	c[0] = s % g.Dims[0]
	s /= g.Dims[0]
	c[1] = s % g.Dims[1]
	s /= g.Dims[1]
	c[2] = s % g.Dims[2]
	c[3] = s / g.Dims[2]
}

// Fwd returns the forward neighbour of site s in direction mu.
func (g *Geometry) Fwd(s, mu int) int { return int(g.fwd[s][mu]) }

// Bwd returns the backward neighbour of site s in direction mu.
func (g *Geometry) Bwd(s, mu int) int { return int(g.bwd[s][mu]) }

// Parity returns 0 for even sites and 1 for odd sites.
func (g *Geometry) Parity(s int) int { return int(g.parity[s]) }

// TimeSlice returns all lexicographic site indices with time coordinate t,
// in increasing spatial order; used by correlator accumulation.
func (g *Geometry) TimeSlice(t int) []int {
	lo, hi := g.TimeSliceRange(t)
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// TimeSliceRange returns the sites of TimeSlice(t) as the range [lo, hi):
// t is the slowest coordinate of the lexicographic index, so a timeslice
// is contiguous.
func (g *Geometry) TimeSliceRange(t int) (lo, hi int) {
	spatial := g.Dims[0] * g.Dims[1] * g.Dims[2]
	return t * spatial, (t + 1) * spatial
}

// T returns the temporal extent.
func (g *Geometry) T() int { return g.Dims[3] }
