package dirac

import "femtoverse/internal/lattice"

// The hop bodies of schur_amd64.s. SSE and SSE2 are in the amd64 baseline,
// so every amd64 build runs them; fibreHop's portable Go body is what the
// tests hold them to.
func init() {
	hopLanes32, hopLanes64 = hopSSE32, hopSSE64
}

//go:noescape
func hopSSE32(dst, src *float32, hops *lattice.Hop, u *[lattice.NDim][]link[float32], ls int, g5 bool)

//go:noescape
func hopSSE64(dst, src *float64, hops *lattice.Hop, u *[lattice.NDim][]link[float64], ls int, g5 bool)
