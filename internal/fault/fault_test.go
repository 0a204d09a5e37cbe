package fault

import (
	"errors"
	"math"
	"testing"
)

func TestDrawIsPureInTaskIdentity(t *testing.T) {
	plan := Plan{Seed: 42, Transient: 0.2, Panic: 0.05, Hang: 0.05, Corrupt: 0.05, DomainLoss: 0.05}
	in, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Same (task, attempt) must yield the same kind no matter how many
	// other draws happen in between, in any order.
	ref := map[[2]int]Kind{}
	for id := 0; id < 200; id++ {
		for att := 1; att <= 3; att++ {
			ref[[2]int{id, att}] = in.Draw(id, att)
		}
	}
	for id := 199; id >= 0; id-- {
		for att := 3; att >= 1; att-- {
			if got := in.Draw(id, att); got != ref[[2]int{id, att}] {
				t.Fatalf("draw (%d,%d) changed from %v to %v on re-draw", id, att, ref[[2]int{id, att}], got)
			}
		}
	}
	// A second injector with an equal plan agrees on every draw.
	in2, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range ref {
		if got := in2.Draw(k[0], k[1]); got != v {
			t.Fatalf("fresh injector disagrees at %v: %v vs %v", k, got, v)
		}
	}
}

func TestDrawRatesAreHonoured(t *testing.T) {
	plan := Plan{Seed: 7, Transient: 0.15, Panic: 0.05, Hang: 0.03, Corrupt: 0.04, DomainLoss: 0.03}
	in, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	var c Counts
	for id := 0; id < n; id++ {
		c.Add(in.Draw(id, 1))
	}
	check := func(name string, got int, want float64) {
		frac := float64(got) / n
		if math.Abs(frac-want) > 0.01 {
			t.Errorf("%s rate %.4f, want %.2f", name, frac, want)
		}
	}
	check("transient", c.Transient, plan.Transient)
	check("panic", c.Panic, plan.Panic)
	check("hang", c.Hang, plan.Hang)
	check("corrupt", c.Corrupt, plan.Corrupt)
	check("domain-loss", c.DomainLoss, plan.DomainLoss)
	if c.Total() == 0 {
		t.Fatal("no faults injected at 30% total rate")
	}
}

func TestSeedChangesSequence(t *testing.T) {
	a, err := NewInjector(Plan{Seed: 1, Transient: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(Plan{Seed: 2, Transient: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for id := 0; id < 1000; id++ {
		if a.Draw(id, 1) == b.Draw(id, 1) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestMaxInjectionsCapsPerTaskFaults(t *testing.T) {
	in, err := NewInjector(Plan{Seed: 3, Transient: 0.9, MaxInjections: 2})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 100; id++ {
		for att := 3; att <= 10; att++ {
			if k := in.Draw(id, att); k != None {
				t.Fatalf("task %d attempt %d drew %v past the injection cap", id, att, k)
			}
		}
	}
}

func TestNilInjectorNeverInjects(t *testing.T) {
	in, err := NewInjector(Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		t.Fatal("empty plan produced a non-nil injector")
	}
	if k := in.Draw(0, 1); k != None {
		t.Fatalf("nil injector drew %v", k)
	}
}

func TestValidate(t *testing.T) {
	bad := []Plan{
		{Transient: -0.1},
		{Transient: 0.6, Panic: 0.5},
		{Hang: math.NaN()},
		{Transient: 0.1, MaxInjections: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
	if err := (Plan{Transient: 0.3, Corrupt: 0.2}).Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

func TestErrorWrapsErrInjected(t *testing.T) {
	for k := Transient; k <= DomainLoss; k++ {
		if !errors.Is(Error(k), ErrInjected) {
			t.Fatalf("%v error does not wrap ErrInjected", k)
		}
	}
	if Error(None) != nil {
		t.Fatal("None produced an error")
	}
}

func TestUniformRangeAndDeterminism(t *testing.T) {
	for i := int64(0); i < 10000; i++ {
		u := Uniform(99, i)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform(99,%d) = %v outside [0,1)", i, u)
		}
		if u != Uniform(99, i) {
			t.Fatalf("Uniform not deterministic at key %d", i)
		}
	}
	// Mean of a uniform sample should be near 1/2.
	sum := 0.0
	for i := int64(0); i < 10000; i++ {
		sum += Uniform(5, i)
	}
	if mean := sum / 10000; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Uniform mean %v far from 0.5", mean)
	}
}
