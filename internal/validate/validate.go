// Package validate is the one parameter-validation vocabulary shared by
// every operator surface: the CLI flag sweeps of gasolve, garank and
// gastress, and the solve server's JSON request decoding. The repo's
// bug history motivates centralizing it - zero and negative walltimes,
// grace windows, heartbeat periods and retry backoffs used to pass
// silently into layers that "corrected" them with defaults (a -5ms
// heartbeat quietly became 50ms), which is exactly how an operator's
// typo turns into a production mystery. Every check here rejects loudly,
// names the offending parameter the way the operator spelled it, and
// states the accepted range.
package validate

import (
	"errors"
	"fmt"
	"time"
)

// PositiveDuration requires d > 0.
func PositiveDuration(name string, d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("%s must be a positive duration (got %v)", name, d)
	}
	return nil
}

// NonNegativeDuration requires d >= 0; zero is reserved for "disabled"
// semantics the flag documents explicitly.
func NonNegativeDuration(name string, d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("%s must not be negative (got %v)", name, d)
	}
	return nil
}

// MinDuration requires d >= floor, naming the floor's own parameter so
// ordered pairs (retry base <= retry cap) read as one rule.
func MinDuration(name string, d time.Duration, floorName string, floor time.Duration) error {
	if d < floor {
		return fmt.Errorf("%s (%v) must be at least %s (%v)", name, d, floorName, floor)
	}
	return nil
}

// PositiveInt requires v >= 1.
func PositiveInt(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("%s must be at least 1 (got %d)", name, v)
	}
	return nil
}

// NonNegativeInt requires v >= 0.
func NonNegativeInt(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must not be negative (got %d)", name, v)
	}
	return nil
}

// PositiveFloat requires v > 0 (NaN fails: NaN > 0 is false).
func PositiveFloat(name string, v float64) error {
	if !(v > 0) {
		return fmt.Errorf("%s must be positive (got %v)", name, v)
	}
	return nil
}

// UnitRate requires 0 <= v <= 1 (an injection or sampling rate).
func UnitRate(name string, v float64) error {
	if !(v >= 0 && v <= 1) {
		return fmt.Errorf("%s must be a rate in [0, 1] (got %v)", name, v)
	}
	return nil
}

// All joins the non-nil errors into one, each on its own line, so an
// operator fixing a command line sees every problem at once rather than
// one per invocation.
func All(errs ...error) error {
	var kept []error
	for _, err := range errs {
		if err != nil {
			kept = append(kept, err)
		}
	}
	return errors.Join(kept...)
}

// AtMost requires v <= ceiling, naming the ceiling the way the operator
// would compute it.
func AtMost(name string, v int, ceilingName string, ceiling int) error {
	if v > ceiling {
		return fmt.Errorf("%s (%d) must be at most %s (%d)", name, v, ceilingName, ceiling)
	}
	return nil
}

// MultipleOf requires v to be a whole multiple of unit. A unit below 1 is
// left to its own parameter's check.
func MultipleOf(name string, v int, unitName string, unit int) error {
	if unit >= 1 && v%unit != 0 {
		return fmt.Errorf("%s (%d) must be a multiple of %s (%d)", name, v, unitName, unit)
	}
	return nil
}
