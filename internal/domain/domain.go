// Package domain executes the Wilson stencil the way the paper's Section
// IV describes it: the lattice is decomposed over ranks, each owning a
// local sub-volume, and every operator application follows the four-step
// prescription verbatim -
//
//  1. pack the halo into contiguous buffers,
//  2. communicate halos to neighbors,
//  3. compute the interior stencil application,
//  4. once halos have arrived, complete the halo stencil computation -
//
// with step 3 genuinely overlapping step 2 (ranks are goroutines, the
// messages travel over buffered channels, and the interior loop runs
// while the faces are in flight). The distributed result is verified
// bit-compatible with the shared-memory operator, and the distributed
// operator satisfies solver.Linear, so the production CGNE runs on top
// unchanged. The per-rank kernel lives in Sub (sub.go), which is shared
// with the real multi-process runtime in internal/wire.
package domain

import (
	"context"
	"fmt"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
)

const spinorLen = dirac.SpinorLen

// message is one halo face in flight: the spinor values of a boundary
// face, ordered by the receiver's face indexing.
type message struct {
	data []complex128
}

// rank is one simulated process: a subdomain kernel plus its channel
// endpoints.
type rank struct {
	sub *Sub
	// send[mu][dir] delivers to the neighbor in that direction; recv is
	// the matching inbound channel.
	send [lattice.NDim][2]chan message
	recv [lattice.NDim][2]chan message
	// pack[stage&1][mu][dir] is the face buffer a message points into. Two
	// sets, because a rank may pack its second stage while a slower
	// neighbor has yet to copy the first stage's face out; a third stage
	// cannot start before every rank has finished the first.
	pack [2][lattice.NDim][2][]complex128
}

// Dist is a distributed Wilson operator over a process grid.
type Dist struct {
	G     *lattice.Geometry
	Grid  [lattice.NDim]int
	Mass  float64
	ranks []*rank
	dec   *lattice.Decomposition
	// sem (capacity 1) makes Apply non-reentrant: the rank scratch
	// buffers are shared. A semaphore rather than a mutex because the
	// critical section spans a wait for the per-rank workers, and
	// parking while holding a sync.Mutex is against the lockhold
	// contract.
	sem chan struct{}
}

// NewDist decomposes the gauge field over the grid. Every partitioned
// direction must split evenly with even local extents.
func NewDist(u *gauge.Field, grid [lattice.NDim]int, mass float64) (*Dist, error) {
	dec, err := lattice.Decompose(u.G.Dims, grid, 1)
	if err != nil {
		return nil, err
	}
	specs, err := BuildSpecs(u, grid, mass)
	if err != nil {
		return nil, err
	}
	d := &Dist{G: u.G, Grid: grid, Mass: mass, dec: dec, sem: make(chan struct{}, 1)}
	for r := range specs {
		sub, err := NewSub(specs[r])
		if err != nil {
			return nil, err
		}
		rk := &rank{sub: sub}
		for mu := 0; mu < lattice.NDim; mu++ {
			if !dec.Partitioned(mu) {
				continue
			}
			for dir := 0; dir < 2; dir++ {
				rk.send[mu][dir] = make(chan message, 1)
				rk.pack[0][mu][dir] = make([]complex128, sub.FaceLen(mu))
				rk.pack[1][mu][dir] = make([]complex128, sub.FaceLen(mu))
			}
		}
		d.ranks = append(d.ranks, rk)
	}

	// Wire channels: what the upper neighbor sent downward arrives as our
	// upper ghost, and vice versa.
	for _, rk := range d.ranks {
		for mu := 0; mu < lattice.NDim; mu++ {
			if !dec.Partitioned(mu) {
				continue
			}
			rk.recv[mu][1] = d.ranks[rk.sub.Spec.NeighborRank(mu, 1)].send[mu][0]
			rk.recv[mu][0] = d.ranks[rk.sub.Spec.NeighborRank(mu, 0)].send[mu][1]
		}
	}
	return d, nil
}

// Size implements solver.Linear.
func (d *Dist) Size() int { return d.G.Vol * spinorLen }

// Ranks returns the process count.
func (d *Dist) Ranks() int { return len(d.ranks) }

// stages is what one distributed application runs on every rank between
// the scatter and the gather. The gamma_5 sandwiches are applied where
// the field lives: a sign flip is exact, so it commutes bit-for-bit with
// the copies of a scatter or gather.
type stages int

const (
	stagesApply  stages = iota // D
	stagesDagger               // gamma_5 D gamma_5
	stagesNormal               // gamma_5 D gamma_5 D, the intermediate never gathered
)

// Apply computes dst = D src with the four-step halo pipeline on every
// rank concurrently.
func (d *Dist) Apply(dst, src []complex128) { d.mustRun(dst, src, stagesApply) }

// ApplyDagger implements solver.Linear via gamma_5 hermiticity.
func (d *Dist) ApplyDagger(dst, src []complex128) { d.mustRun(dst, src, stagesDagger) }

// ApplyNormal computes dst[k] = D^dag D src[k] in one distributed
// application a system: each rank runs both stencils back to back on its
// own subdomain, with a halo exchange before each, and the intermediate
// D src[k] is never gathered. Each result is bit-for-bit
// ApplyDagger(Apply(src[k])); it is the solver.Normal CGNE takes.
func (d *Dist) ApplyNormal(dst, src [][]complex128) {
	for k := range src {
		d.mustRun(dst[k], src[k], stagesNormal)
	}
}

func (d *Dist) mustRun(dst, src []complex128, st stages) {
	if err := d.run(context.Background(), dst, src, st); err != nil {
		// Unreachable: the background context cannot be canceled, and
		// run has no other failure mode.
		panic(err)
	}
}

// ApplyCtx is Apply with cooperative cancellation: a halo wait aborts
// promptly when ctx is canceled (drain, deadline, lost neighbor) instead
// of blocking until the operator completes. On cancellation the contents
// of dst are unspecified and ctx.Err() is returned.
func (d *Dist) ApplyCtx(ctx context.Context, dst, src []complex128) error {
	return d.run(ctx, dst, src, stagesApply)
}

func (d *Dist) run(ctx context.Context, dst, src []complex128, st stages) error {
	if len(dst) != d.Size() || len(src) != d.Size() {
		panic("domain: Apply size mismatch")
	}
	select {
	case d.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-d.sem }()

	// Scatter the global field.
	for _, rk := range d.ranks {
		rk.sub.ScatterFrom(src)
	}

	errs := make(chan error, len(d.ranks))
	for _, rk := range d.ranks {
		go func(rk *rank) {
			errs <- d.runRank(ctx, rk, st)
		}(rk)
	}
	var firstErr error
	for range d.ranks {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		// Drain any halo messages a canceled rank left in flight so the
		// buffered channels are clean for the next application.
		for _, rk := range d.ranks {
			for mu := range rk.send {
				for dir := range rk.send[mu] {
					if rk.send[mu][dir] == nil {
						continue
					}
					select {
					case <-rk.send[mu][dir]:
					default:
					}
				}
			}
		}
		return firstErr
	}

	// Gather.
	for _, rk := range d.ranks {
		rk.sub.GatherTo(dst)
	}
	return nil
}

// runRank runs one rank's share of an application: the stencil stages
// the mode asks for, wrapped in the rank-local gamma_5 flips.
func (d *Dist) runRank(ctx context.Context, rk *rank, st stages) error {
	sub := rk.sub
	if st == stagesDagger {
		dirac.Gamma5(sub.src, sub.src)
	}
	if err := d.stencilStage(ctx, rk, 0); err != nil {
		return err
	}
	if st == stagesNormal {
		dirac.Gamma5(sub.src, sub.dst)
		if err := d.stencilStage(ctx, rk, 1); err != nil {
			return err
		}
	}
	if st != stagesApply {
		dirac.Gamma5(sub.dst, sub.dst)
	}
	return nil
}

// stencilStage runs the paper's four steps on one rank, consulting ctx at
// every halo wait so cancellation interrupts the exchange.
func (d *Dist) stencilStage(ctx context.Context, rk *rank, stage int) error {
	// Step 1: pack the halo faces.
	// Step 2: post the sends (buffered channels: non-blocking here).
	for mu := range rk.send {
		if !d.dec.Partitioned(mu) {
			continue
		}
		for dir := range rk.send[mu] {
			buf := rk.pack[stage&1][mu][dir]
			rk.sub.PackFace(mu, dir, buf)
			select {
			case rk.send[mu][dir] <- message{data: buf}:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}

	// Step 3: interior stencil, overlapping the communication.
	rk.sub.StencilInterior()

	// Step 4: receive halos, then complete the boundary sites.
	for mu := range rk.recv {
		if !d.dec.Partitioned(mu) {
			continue
		}
		for dir := range rk.recv[mu] {
			select {
			case m := <-rk.recv[mu][dir]:
				rk.sub.SetGhost(mu, dir, m.data)
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	rk.sub.StencilBoundary()
	return nil
}

// HaloBytesPerApply returns the spinor bytes each rank exchanges per
// application - rank 0's halo plan (Sub.HaloPeers) summed over its faces -
// the quantity the communication model prices.
func (d *Dist) HaloBytesPerApply() int {
	if len(d.ranks) == 0 {
		return 0
	}
	sub := d.ranks[0].sub
	total := 0
	for _, p := range sub.HaloPeers() {
		for _, f := range p.Faces {
			total += sub.FaceLen(f[0]) * 16
		}
	}
	return total
}

// InteriorFraction reports the fraction of sites computable before any
// halo arrives - the overlap budget of step 3.
func (d *Dist) InteriorFraction() float64 {
	if len(d.ranks) == 0 {
		return 0
	}
	sub := d.ranks[0].sub
	return float64(len(sub.interior)) / float64(sub.local.Vol)
}

// String describes the decomposition.
func (d *Dist) String() string {
	return fmt.Sprintf("domain: %v over %v (%d ranks, %.0f%% interior)",
		d.G.Dims, d.Grid, d.Ranks(), 100*d.InteriorFraction())
}
