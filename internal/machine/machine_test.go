package machine

import (
	"math"
	"testing"
)

func TestTableIIValues(t *testing.T) {
	ti, ra, si, su := Titan(), Ray(), Sierra(), Summit()
	if ti.Nodes != 18688 || ti.GPUsPerNode != 1 || ti.FP32PerNodeTF != 4 {
		t.Fatalf("Titan row wrong: %+v", ti)
	}
	if ra.Nodes != 54 || ra.GPUsPerNode != 4 || ra.FP32PerNodeTF != 44 {
		t.Fatalf("Ray row wrong: %+v", ra)
	}
	if si.GPUsPerNode != 4 || si.FP32PerNodeTF != 60 || si.GPUBWPerNodeGB != 3600 {
		t.Fatalf("Sierra row wrong: %+v", si)
	}
	if su.GPUsPerNode != 6 || su.FP32PerNodeTF != 90 || su.GPUBWPerNodeGB != 5400 {
		t.Fatalf("Summit row wrong: %+v", su)
	}
	if ti.GPU != K20X || ra.GPU != P100 || si.GPU != V100 || su.GPU != V100 {
		t.Fatal("GPU generations wrong")
	}
}

func TestCalibratedEffectiveBandwidths(t *testing.T) {
	// The calibration must reproduce the paper's Fig. 3c best points
	// exactly by construction.
	cases := []struct {
		m    Machine
		want float64
	}{
		{Titan(), 139}, {Ray(), 516}, {Sierra(), 975}, {Summit(), 975},
	}
	for _, c := range cases {
		if got := c.m.EffectiveBWPerGPUGB(); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("%s: %v GB/s, want %v", c.m.Name, got, c.want)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	s := Summit()
	if s.FP32PerGPUTF() != 15 {
		t.Fatalf("Summit FP32/GPU = %v", s.FP32PerGPUTF())
	}
	if s.MemBWPerGPUGB() != 900 {
		t.Fatalf("Summit mem BW/GPU = %v", s.MemBWPerGPUGB())
	}
	if s.Nodes*s.GPUsPerNode != 4600*6 {
		t.Fatalf("Summit GPUs = %d", s.Nodes*s.GPUsPerNode)
	}
}

func TestCORALLacksGPUDirect(t *testing.T) {
	if Sierra().GPUDirectRDMA || Summit().GPUDirectRDMA {
		t.Fatal("paper: Sierra and Summit did not support GDR at submission")
	}
}

func TestAllOrderMatchesTable(t *testing.T) {
	all := All()
	want := []string{"Titan", "Ray", "Sierra", "Summit"}
	if len(all) != 4 {
		t.Fatalf("%d machines", len(all))
	}
	for i, m := range all {
		if m.Name != want[i] {
			t.Fatalf("order: %v", all)
		}
	}
}

func TestGPUGenString(t *testing.T) {
	if K20X.String() != "K20X" || P100.String() != "P100" || V100.String() != "V100" {
		t.Fatal("generation names")
	}
	if GPUGen(7).String() == "" {
		t.Fatal("unknown generation must format")
	}
}
