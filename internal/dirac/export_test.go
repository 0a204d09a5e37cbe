package dirac

// Doors for the external test package, dirac_test, which may import the
// packages built on this one (domain, solver) where the package's own
// tests may not.
var (
	SchurInputs = schurInputs
	RefWilson   = refWilson
)
