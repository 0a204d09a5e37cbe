package dirac

import "sync/atomic"

// Doors for the external test package, dirac_test, which may import the
// packages built on this one (domain, solver) where the package's own
// tests may not.
var (
	SchurInputs   = schurInputs
	RefWilson     = refWilson
	SameOrNaN     = sameOrNaN[float64]
	FibreSpecials = fibreSpecials[float64]
)

// UseGoSite makes WilsonSite run the portable site body until restore is
// called: the switch the tests hold the build's body to it with.
func UseGoSite() (restore func()) {
	body := siteBody
	siteBody = siteGo
	return func() { siteBody = body }
}

// CountSites counts every WilsonSite call until restore is called, each
// still run by the body the build selected.
func CountSites() (calls *atomic.Int64, restore func()) {
	body := siteBody
	calls = new(atomic.Int64)
	siteBody = func(out, in *[SpinorLen]complex128, legs *Legs, diag float64, dagger bool) {
		calls.Add(1)
		body(out, in, legs, diag, dagger)
	}
	return calls, func() { siteBody = body }
}

// BenchPaired is the paired benchmark of paired_test.go, for the external
// test package's benchmarks.
var BenchPaired = benchPaired
