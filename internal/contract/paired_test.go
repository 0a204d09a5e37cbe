package contract

import (
	"testing"

	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/pairedtest"
)

// BenchmarkContractConfigPaired is contractConfig's work on one fh-*
// configuration (2x2x4x8) - Proton2pt then ProtonFH3pt, with u = d and
// fhU = fhD as a campaign calls them - judged in pairs against the
// contractions they replaced (ref_test.go): on one lane (one-lane), on the
// lane budget of two (two-lanes, which needs -cpu 2 to have a second
// core), two lanes against one (spread), and an A/A calibration (aa).
func BenchmarkContractConfigPaired(b *testing.B) {
	g := lattice.MustNew(2, 2, 4, 8)
	u, fh := testProp(g, 1, "random"), testProp(g, 2, "random")
	onLanes := func(n int) func() {
		return func() {
			old := linalg.DefaultWorkers
			linalg.DefaultWorkers = n
			Proton2pt(u, u, 0)
			ProtonFH3pt(u, u, fh, fh, 0)
			linalg.DefaultWorkers = old
		}
	}
	ref := func() {
		proton2ptRef(u, u, 0)
		protonFH3ptRef(u, u, fh, fh, 0)
	}
	for _, c := range []struct {
		name      string
		cand, ref func()
	}{
		{"one-lane", onLanes(1), ref},
		{"two-lanes", onLanes(2), ref},
		{"spread", onLanes(2), onLanes(1)},
		{"aa", onLanes(1), onLanes(1)},
	} {
		b.Run(c.name, func(b *testing.B) { pairedtest.Bench(b, c.cand, c.ref) })
	}
}
