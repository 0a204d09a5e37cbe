package validate

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestDurationChecks(t *testing.T) {
	cases := []struct {
		name string
		err  error
		ok   bool
	}{
		{"pos/positive", PositiveDuration("-heartbeat-every", time.Millisecond), true},
		{"pos/zero", PositiveDuration("-heartbeat-every", 0), false},
		{"pos/negative", PositiveDuration("-heartbeat-every", -5*time.Millisecond), false},
		{"nonneg/zero", NonNegativeDuration("-walltime", 0), true},
		{"nonneg/positive", NonNegativeDuration("-walltime", time.Second), true},
		{"nonneg/negative", NonNegativeDuration("-walltime", -time.Second), false},
		{"min/equal", MinDuration("-retry-max", time.Millisecond, "-retry-base", time.Millisecond), true},
		{"min/above", MinDuration("-retry-max", 2*time.Millisecond, "-retry-base", time.Millisecond), true},
		{"min/below", MinDuration("-retry-max", time.Microsecond, "-retry-base", time.Millisecond), false},
	}
	for _, c := range cases {
		if got := c.err == nil; got != c.ok {
			t.Errorf("%s: ok=%v, want %v (err=%v)", c.name, got, c.ok, c.err)
		}
	}
}

func TestIntAndFloatChecks(t *testing.T) {
	cases := []struct {
		name string
		err  error
		ok   bool
	}{
		{"posint/one", PositiveInt("-repeat", 1), true},
		{"posint/zero", PositiveInt("-repeat", 0), false},
		{"posint/negative", PositiveInt("-count", -3), false},
		{"nonnegint/zero", NonNegativeInt("-cache-mem", 0), true},
		{"nonnegint/negative", NonNegativeInt("-cache-mem", -1), false},
		{"posfloat/positive", PositiveFloat("tol", 1e-8), true},
		{"posfloat/zero", PositiveFloat("tol", 0), false},
		{"posfloat/negative", PositiveFloat("tol", -1), false},
		{"posfloat/nan", PositiveFloat("tol", math.NaN()), false},
		{"rate/zero", UnitRate("-drop", 0), true},
		{"rate/one", UnitRate("-drop", 1), true},
		{"rate/above", UnitRate("-drop", 1.01), false},
		{"rate/negative", UnitRate("-drop", -0.1), false},
		{"rate/nan", UnitRate("-drop", math.NaN()), false},
		{"atmost/equal", AtMost("-jobgpus", 256, "-nodes x -gpus", 256), true},
		{"atmost/above", AtMost("-jobgpus", 257, "-nodes x -gpus", 256), false},
		{"multiple/whole", MultipleOf("-jobgpus", 16, "-gpus", 4), true},
		{"multiple/part", MultipleOf("-jobgpus", 3, "-gpus", 4), false},
		{"multiple/zero unit", MultipleOf("-jobgpus", 3, "-gpus", 0), true},
	}
	for _, c := range cases {
		if got := c.err == nil; got != c.ok {
			t.Errorf("%s: ok=%v, want %v (err=%v)", c.name, got, c.ok, c.err)
		}
	}
}

func TestErrorsNameTheParameter(t *testing.T) {
	err := PositiveDuration("-heartbeat-every", -time.Second)
	if err == nil || !strings.Contains(err.Error(), "-heartbeat-every") {
		t.Fatalf("error does not name the flag: %v", err)
	}
	if !strings.Contains(err.Error(), "-1s") {
		t.Fatalf("error does not echo the offending value: %v", err)
	}
}

func TestAllJoinsAndSkipsNil(t *testing.T) {
	if All(nil, nil) != nil {
		t.Fatal("All of nils should be nil")
	}
	err := All(
		nil,
		PositiveDuration("-retry-base", 0),
		PositiveInt("-heartbeat-miss", -2),
		nil,
	)
	if err == nil {
		t.Fatal("All dropped real errors")
	}
	msg := err.Error()
	for _, want := range []string{"-retry-base", "-heartbeat-miss"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error missing %q: %s", want, msg)
		}
	}
}
