package lattice

import "fmt"

// Domain decomposition bookkeeping. The real solves in this repository run
// in a single address space, but the communication and performance models
// need the same quantities an MPI decomposition would produce: local
// volumes, halo surface areas per direction, and message sizes. This file
// computes them exactly as QUDA's multi-GPU partitioning would.

// Decomposition describes a uniform block decomposition of a global
// lattice across a 4-D process grid.
type Decomposition struct {
	Global [NDim]int // global lattice extents
	Grid   [NDim]int // process grid extents
	Local  [NDim]int // per-rank local extents
	Ls     int       // fifth-dimension extent carried by every rank
}

// Decompose splits global extents over a process grid. Every direction
// must divide evenly and leave an even local extent (for red-black), and
// local extents must be >= 2 so the stencil has interior sites.
func Decompose(global [NDim]int, grid [NDim]int, ls int) (*Decomposition, error) {
	if ls < 1 {
		return nil, fmt.Errorf("lattice: Ls = %d; need >= 1", ls)
	}
	d := &Decomposition{Global: global, Grid: grid, Ls: ls}
	for mu := 0; mu < NDim; mu++ {
		if grid[mu] < 1 {
			return nil, fmt.Errorf("lattice: grid[%d] = %d; need >= 1", mu, grid[mu])
		}
		if global[mu]%grid[mu] != 0 {
			return nil, fmt.Errorf("lattice: global extent %d not divisible by grid %d in direction %d",
				global[mu], grid[mu], mu)
		}
		d.Local[mu] = global[mu] / grid[mu]
		if d.Local[mu] < 2 || d.Local[mu]%2 != 0 {
			return nil, fmt.Errorf("lattice: local extent %d in direction %d must be even and >= 2",
				d.Local[mu], mu)
		}
	}
	return d, nil
}

// Ranks returns the number of processes in the grid.
func (d *Decomposition) Ranks() int {
	n := 1
	for _, g := range d.Grid {
		n *= g
	}
	return n
}

// LocalVolume4D returns the number of 4-D sites per rank.
func (d *Decomposition) LocalVolume4D() int {
	v := 1
	for _, l := range d.Local {
		v *= l
	}
	return v
}

// LocalVolume5D returns the number of 5-D sites per rank.
func (d *Decomposition) LocalVolume5D() int { return d.LocalVolume4D() * d.Ls }

// Partitioned reports whether direction mu is split across processes (and
// therefore requires halo exchange rather than local wraparound).
func (d *Decomposition) Partitioned(mu int) bool { return d.Grid[mu] > 1 }

// SurfaceSites4D returns the number of 4-D sites on one face orthogonal to
// direction mu (the per-direction, per-polarity halo site count).
func (d *Decomposition) SurfaceSites4D(mu int) int {
	return d.LocalVolume4D() / d.Local[mu]
}

// HaloSites5D returns the total number of 5-D halo sites a rank exchanges
// per stencil application: two faces (forward and backward) per
// partitioned direction, each of Ls stacked 4-D faces.
func (d *Decomposition) HaloSites5D() int {
	total := 0
	for mu := 0; mu < NDim; mu++ {
		if d.Partitioned(mu) {
			total += 2 * d.SurfaceSites4D(mu) * d.Ls
		}
	}
	return total
}

// PartitionedDims returns the number of directions with halo exchange.
func (d *Decomposition) PartitionedDims() int {
	n := 0
	for mu := 0; mu < NDim; mu++ {
		if d.Partitioned(mu) {
			n++
		}
	}
	return n
}

// BestGrid chooses a process grid for nRanks processes that divides the
// global lattice evenly while minimising the total halo surface (the same
// objective QUDA's default partitioner uses: prefer splitting long
// directions, keep local volumes chunky). It returns an error when no
// admissible grid exists.
func BestGrid(global [NDim]int, ls, nRanks int) (*Decomposition, error) {
	var best *Decomposition
	var try func(mu int, remaining int, grid [NDim]int)
	try = func(mu int, remaining int, grid [NDim]int) {
		if mu == NDim {
			if remaining == 1 {
				d, err := Decompose(global, grid, ls)
				if err == nil && (best == nil || d.HaloSites5D() < best.HaloSites5D()) {
					best = d
				}
			}
			return
		}
		for f := 1; f <= remaining; f++ {
			if remaining%f != 0 {
				continue
			}
			grid[mu] = f
			try(mu+1, remaining/f, grid)
		}
	}
	try(0, nRanks, [NDim]int{})
	if best == nil {
		return nil, fmt.Errorf("lattice: no admissible %d-rank grid for %v", nRanks, global)
	}
	return best, nil
}
