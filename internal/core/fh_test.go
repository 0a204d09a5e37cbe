package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"femtoverse/internal/cache"
	"femtoverse/internal/dirac"
	"femtoverse/internal/linalg"
	"femtoverse/internal/solver"
)

func fhCampaignSpec() FHCampaignConfig {
	return FHCampaignConfig{
		RealConfig: RealConfig{
			Dims:     [4]int{2, 2, 2, 4},
			Params:   dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1},
			NConfigs: 2, Seed: 7, Tol: 1e-8, Prec: solver.Single,
			Beta: 5.8, ThermSweeps: 3, GapSweeps: 1,
		},
		Insertions: []Insertion{
			{Name: "axial", Gamma: linalg.AxialGamma()},
			{Name: "vector4", Gamma: linalg.Gamma(3)},
		},
	}
}

func requireFHIdentical(t *testing.T, ref, got *FHCampaignResult) {
	t.Helper()
	if len(got.C2) != len(ref.C2) || len(got.CFH) != len(ref.CFH) {
		t.Fatalf("shape: %d/%d configs, %d/%d insertions",
			len(got.C2), len(ref.C2), len(got.CFH), len(ref.CFH))
	}
	for i := range ref.C2 {
		for tt := range ref.C2[i] {
			if math.Float64bits(got.C2[i][tt]) != math.Float64bits(ref.C2[i][tt]) {
				t.Fatalf("C2 config %d differs at t=%d", i, tt)
			}
		}
	}
	for name, series := range ref.CFH {
		g, ok := got.CFH[name]
		if !ok {
			t.Fatalf("insertion %q missing", name)
		}
		for i := range series {
			for tt := range series[i] {
				if math.Float64bits(g[i][tt]) != math.Float64bits(series[i][tt]) {
					t.Fatalf("CFH %q config %d differs at t=%d", name, i, tt)
				}
			}
		}
	}
}

// TestFHCampaignSharesBaseSolves: with a cache attached, the base
// propagator of each configuration is solved once no matter how many
// insertions consume it, and the result matches the uncached run bit for
// bit.
func TestFHCampaignSharesBaseSolves(t *testing.T) {
	spec := fhCampaignSpec()
	ref, err := RunFHCampaign(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.BaseSolves != spec.NConfigs || ref.FHSolves != spec.NConfigs*len(spec.Insertions) {
		t.Fatalf("uncached solve counts: base=%d fh=%d", ref.BaseSolves, ref.FHSolves)
	}

	store, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunFHCampaign(context.Background(), spec, store)
	if err != nil {
		t.Fatal(err)
	}
	if cold.BaseSolves != spec.NConfigs {
		t.Fatalf("cold cached run solved %d base propagators, want %d (one per config, shared across %d insertions)",
			cold.BaseSolves, spec.NConfigs, len(spec.Insertions))
	}
	if cold.FHSolves != spec.NConfigs*len(spec.Insertions) {
		t.Fatalf("cold cached run solved %d FH propagators, want %d",
			cold.FHSolves, spec.NConfigs*len(spec.Insertions))
	}
	requireFHIdentical(t, ref, cold)
}

// TestFHCampaignWarmZeroSolves: a rerun over a populated store - across a
// simulated process restart via the disk tier - performs zero solves and
// reproduces every correlator bit for bit.
func TestFHCampaignWarmZeroSolves(t *testing.T) {
	spec := fhCampaignSpec()
	dir := t.TempDir()
	store, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunFHCampaign(context.Background(), spec, store)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh cache instance over the same directory: the "restart".
	warmStore, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunFHCampaign(context.Background(), spec, warmStore)
	if err != nil {
		t.Fatal(err)
	}
	if warm.BaseSolves != 0 || warm.FHSolves != 0 {
		t.Fatalf("warm run solved base=%d fh=%d, want zero", warm.BaseSolves, warm.FHSolves)
	}
	requireFHIdentical(t, cold, warm)
	if st := warmStore.Stats(); st.Computes != 0 || st.Hits < int64(spec.NConfigs*(1+len(spec.Insertions))) {
		t.Fatalf("warm store stats: %v", st)
	}
}

// TestFHCampaignRejectsDuplicateNames: CFH is keyed by insertion name,
// so two insertions sharing a name would interleave their correlators
// into one series and CFH[name][i] would stop being configuration i.
func TestFHCampaignRejectsDuplicateNames(t *testing.T) {
	spec := fhCampaignSpec()
	spec.Insertions = []Insertion{
		{Name: "axial", Gamma: linalg.AxialGamma()},
		{Name: "vector4", Gamma: linalg.Gamma(3)},
		{Name: "axial", Gamma: linalg.Gamma(3)},
	}
	res, err := RunFHCampaign(context.Background(), spec, nil)
	if err == nil {
		t.Fatalf("duplicate insertion name accepted: CFH[axial] has %d entries for %d configurations",
			len(res.CFH["axial"]), spec.NConfigs)
	}
	if !strings.Contains(err.Error(), `"axial"`) {
		t.Fatalf("error %q does not name the duplicate", err)
	}
}

// TestFHPropKeyCoversGamma: two insertions that share a name but differ
// in spin structure get distinct cache identities.
func TestFHPropKeyCoversGamma(t *testing.T) {
	spec := fhCampaignSpec()
	a := fhPropKey(spec.RealConfig, 0, Insertion{Name: "x", Gamma: linalg.AxialGamma()})
	b := fhPropKey(spec.RealConfig, 0, Insertion{Name: "x", Gamma: linalg.Gamma(3)})
	if a.ID == b.ID {
		t.Fatal("gamma structure not part of the FH key")
	}
	if fhPropKey(spec.RealConfig, 0, Insertion{Name: "x", Gamma: linalg.AxialGamma()}) != a {
		t.Fatal("FH key not stable")
	}
	if basePropKey(spec.RealConfig, 0).ID == basePropKey(spec.RealConfig, 1).ID {
		t.Fatal("configuration index not in the base key")
	}
}

// TestPropKeysPinned holds the propagator cache identity to literals
// computed before the key prefix moved into specKey: a store warmed
// by an older build stays warm. A pin that changes orphans every stored
// propagator and needs a namespace bump, not a new literal.
func TestPropKeysPinned(t *testing.T) {
	spec := RealConfig{
		Dims:     [4]int{2, 2, 2, 4},
		Params:   dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1},
		NConfigs: 2, Seed: 7, Tol: 1e-8, Prec: solver.Single,
		Beta: 5.8, ThermSweeps: 3, GapSweeps: 1,
	}
	if got, want := basePropKey(spec, 1).ID, "cee0cb88aa5e32f44eee3333ab39b89672cf2cd82ab7012c0eaefc65a955df0d"; got != want {
		t.Errorf("base propagator key %s, pinned %s", got, want)
	}
	axial := Insertion{Name: "axial", Gamma: linalg.AxialGamma()}
	if got, want := fhPropKey(spec, 1, axial).ID, "d7891fb2d545d9a01be10551c91353e00523f1a453dc91b5e83f71da98a1325a"; got != want {
		t.Errorf("FH propagator key %s, pinned %s", got, want)
	}
}
