package comms

import (
	"math"
	"testing"

	"femtoverse/internal/machine"
)

func testExchange(compute float64) Exchange {
	return Exchange{
		InterBytes:     8e6,
		IntraBytes:     4e6,
		Dims:           3,
		GPUsPerNIC:     4,
		ComputeSeconds: compute,
	}
}

func TestGDRUnavailableOnCORAL(t *testing.T) {
	for _, m := range []machine.Machine{machine.Sierra(), machine.Summit()} {
		mod := Model{M: m}
		if mod.Available(GDR) {
			t.Fatalf("%s reported GDR support; the paper says it was missing", m.Name)
		}
		for _, c := range mod.Choices() {
			if c.Policy == GDR {
				t.Fatalf("%s enumerated a GDR choice", m.Name)
			}
		}
	}
	if !(Model{M: machine.Titan()}).Available(GDR) {
		t.Fatal("Titan should offer GPUDirect")
	}
}

func TestGDRBeatsOtherPoliciesWhenAvailable(t *testing.T) {
	mod := Model{M: machine.Titan()}
	ex := testExchange(1e-3)
	for _, fine := range []bool{false, true} {
		gdr := mod.rawTime(Choice{GDR, fine}, ex)
		staged := mod.rawTime(Choice{StagedDMA, fine}, ex)
		zc := mod.rawTime(Choice{ZeroCopy, fine}, ex)
		if gdr >= staged || gdr >= zc {
			t.Fatalf("GDR not fastest: gdr=%g staged=%g zc=%g", gdr, staged, zc)
		}
	}
}

func TestFineGrainedWinsWhenComputeHidesComms(t *testing.T) {
	mod := Model{M: machine.Sierra()}
	// Plenty of compute to hide under: fine-grained overlap wins.
	exBig := testExchange(1.0)
	fine := mod.ExposedTime(Choice{ZeroCopy, true}, exBig)
	coarse := mod.ExposedTime(Choice{ZeroCopy, false}, exBig)
	if fine >= coarse {
		t.Fatalf("fine-grained should win with deep compute: %g vs %g", fine, coarse)
	}
	// Latency-dominated regime (tiny messages, no compute): coarse wins.
	exTiny := Exchange{InterBytes: 1e3, IntraBytes: 0, Dims: 4, GPUsPerNIC: 4}
	fine = mod.ExposedTime(Choice{ZeroCopy, true}, exTiny)
	coarse = mod.ExposedTime(Choice{ZeroCopy, false}, exTiny)
	if coarse >= fine {
		t.Fatalf("coarse should win at tiny messages: coarse=%g fine=%g", coarse, fine)
	}
}

func TestExposedTimeNeverNegativeAndBounded(t *testing.T) {
	mod := Model{M: machine.Ray()}
	ex := testExchange(10)
	for _, c := range mod.Choices() {
		e := mod.ExposedTime(c, ex)
		raw := mod.rawTime(c, ex)
		if e < 0 || e > raw {
			t.Fatalf("%v: exposed %g outside [0, %g]", c, e, raw)
		}
	}
}

func TestNICSharingSlowsExchange(t *testing.T) {
	mod := Model{M: machine.Summit()}
	ex1 := testExchange(0)
	ex1.GPUsPerNIC = 1
	ex6 := testExchange(0)
	ex6.GPUsPerNIC = 6
	t1 := mod.rawTime(Choice{ZeroCopy, false}, ex1)
	t6 := mod.rawTime(Choice{ZeroCopy, false}, ex6)
	if t6 <= t1 {
		t.Fatalf("sharing the NIC among 6 GPUs must be slower: %g vs %g", t6, t1)
	}
}

func TestBestMatchesExhaustive(t *testing.T) {
	mod := Model{M: machine.Titan()}
	ex := testExchange(5e-4)
	best, bestT := mod.Best(ex)
	for _, c := range mod.Choices() {
		if tt := mod.ExposedTime(c, ex); tt < bestT {
			t.Fatalf("Best missed %v (%g < %g for %v)", c, tt, bestT, best)
		}
	}
	if math.IsInf(bestT, 1) {
		t.Fatal("no finite choice")
	}
}

func TestPolicyStrings(t *testing.T) {
	if StagedDMA.String() == "" || ZeroCopy.String() == "" || GDR.String() == "" {
		t.Fatal("empty policy names")
	}
	c := Choice{GDR, true}
	if c.String() != "gpudirect-rdma/fine" {
		t.Fatalf("choice string %q", c.String())
	}
}
