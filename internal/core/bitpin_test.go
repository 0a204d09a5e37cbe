package core

import (
	"context"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/obs"
	"femtoverse/internal/solver"
)

// The pins below were captured at the commit before the fused Schur
// kernels landed (PR 11's tree). benchmark/testdata/golden_seed1.json
// holds the same kind of evidence for the benchmark's workloads, but
// tier-1 does not build benchmark/, so this is what proves inside
// `go test ./...` that kernel work moved no bits. A pin that changes is
// a physics change and needs a written justification in DESIGN.md.

func pinSpec(prec solver.Precision) RealConfig {
	spec := DefaultRealConfig()
	spec.Dims = [4]int{2, 2, 2, 8}
	spec.NConfigs = 2
	spec.ThermSweeps = 3
	spec.GapSweeps = 1
	spec.Prec = prec
	return spec
}

func TestBitPinFHCampaign(t *testing.T) {
	for _, tc := range []struct {
		prec        solver.Precision
		fingerprint string
		iterations  int64
	}{
		{solver.Single, "61af801fd0a2643c293c267c51a7a1130386b2ce55f2a3af2917fc7e185e55c4", 2723},
		{solver.Half, "969b730731f4bc7c37ca1a6a9323b46e8d5a168eec5360591ff7df9b0bd546cf", 2724},
	} {
		spec := pinSpec(tc.prec)
		res, err := RunReal(spec)
		if err != nil {
			t.Fatalf("%v: %v", tc.prec, err)
		}
		camp := NewCampaign(spec)
		for i := range res.C2 {
			camp.C2[i], camp.CFH[i] = res.C2[i], res.CFH[i]
		}
		if got := camp.Fingerprint(); got != tc.fingerprint {
			t.Errorf("%v: RunReal fingerprint %s, pinned %s", tc.prec, got, tc.fingerprint)
		}

		// The iteration count comes from the service path's counter; its
		// correlators must be RunReal's.
		ens, err := EnsembleFor(spec)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		svc := NewCampaign(spec)
		for i := range ens {
			u := ens[i]
			svc.C2[i], svc.CFH[i], _, err = SolveConfigCached(context.Background(), spec, i,
				func() (*gauge.Field, error) { return u, nil }, nil, reg)
			if err != nil {
				t.Fatalf("%v: config %d: %v", tc.prec, i, err)
			}
		}
		if got := svc.Fingerprint(); got != tc.fingerprint {
			t.Errorf("%v: service-path fingerprint %s, pinned %s", tc.prec, got, tc.fingerprint)
		}
		if got, _ := reg.Snapshot().CounterValue("core.solver_iterations"); got != tc.iterations {
			t.Errorf("%v: %d solver iterations, pinned %d", tc.prec, got, tc.iterations)
		}
	}
}
