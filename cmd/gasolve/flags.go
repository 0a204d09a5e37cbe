package main

import (
	"errors"
	"time"

	"femtoverse/internal/validate"
)

// cliFlags carries every gasolve flag value that needs validation, so
// the rules live in one testable function instead of a pile of ad-hoc
// ifs in main.
type cliFlags struct {
	walltime   time.Duration
	drainGrace time.Duration
	cacheMemMB int
	samples    int
	tradFactor int
	l, t, ls   int
	configs    int
	batch      int
	workers    int
	journal    string
}

// validate applies the flag contract: range checks through the shared
// validate vocabulary (the same rules gaserve applies to JSON
// submissions), then the structural rules tying modes together. Every
// violated rule is reported, not just the first.
func (f cliFlags) validate() error {
	rangeErr := validate.All(
		validate.NonNegativeDuration("-walltime", f.walltime),
		validate.PositiveDuration("-drain-grace", f.drainGrace),
		validate.NonNegativeInt("-cache-mem", f.cacheMemMB),
		validate.PositiveInt("-samples", f.samples),
		validate.PositiveInt("-tradfactor", f.tradFactor),
		validate.PositiveInt("-l", f.l),
		validate.PositiveInt("-t", f.t),
		validate.PositiveInt("-ls", f.ls),
		validate.PositiveInt("-configs", f.configs),
		validate.NonNegativeInt("-batch", f.batch),
		validate.NonNegativeInt("-workers", f.workers),
	)
	var structural []error
	if f.walltime > 0 && f.journal == "" {
		structural = append(structural,
			errors.New("-walltime needs -journal: only a journaled campaign can resume the refused work"))
	}
	if f.batch > 0 && f.journal == "" {
		structural = append(structural,
			errors.New("-batch needs -journal: only a journaled campaign can resume the configurations left over"))
	}
	return validate.All(append([]error{rangeErr}, structural...)...)
}
