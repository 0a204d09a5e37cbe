package core

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"femtoverse/internal/cache"
	"femtoverse/internal/obs"
)

// TestSolveKeyIdentity: the content address covers every physics input
// and excludes the batch size, so campaigns of different lengths over
// one ensemble share their prefix solves.
func TestSolveKeyIdentity(t *testing.T) {
	spec := campaignSpec()
	base := SolveKey(spec, 0)
	// The literal was computed before the key prefix moved into specKey: a
	// store warmed by an older build stays warm. A pin that changes
	// orphans every stored result and needs a namespace bump, not a new
	// literal.
	if want := "77f636315385069dd6e93cbbc9b704ed8e68dc938fb049d9bd39df83cd837791"; base.ID != want {
		t.Fatalf("SolveKey(campaignSpec(), 0) = %s, pinned %s", base.ID, want)
	}
	if base != SolveKey(spec, 0) {
		t.Fatal("identical specs gave different keys")
	}
	if base.ID == SolveKey(spec, 1).ID {
		t.Fatal("configuration index not in the key")
	}
	longer := spec
	longer.NConfigs = spec.NConfigs * 4
	if SolveKey(longer, 0) != base {
		t.Fatal("batch size leaked into the key; cross-campaign dedupe broken")
	}
	for _, mutate := range []func(*RealConfig){
		func(s *RealConfig) { s.Seed++ },
		func(s *RealConfig) { s.Beta += 1e-15 },
		func(s *RealConfig) { s.Tol *= 2 },
		func(s *RealConfig) { s.Params.M += 1e-16 },
		func(s *RealConfig) { s.ThermSweeps++ },
		func(s *RealConfig) { s.Dims[3]++ },
	} {
		m := spec
		mutate(&m)
		if SolveKey(m, 0).ID == base.ID {
			t.Fatalf("mutated spec %+v collided with base key", m)
		}
	}
}

// TestConcurrentCampaignsShareSolves: two campaigns racing over one store
// solve each configuration exactly once between them - the singleflight
// coalesces concurrent cold keys and the cache serves everything else.
func TestConcurrentCampaignsShareSolves(t *testing.T) {
	spec := campaignSpec()
	ref := reference(t)
	store, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	camps := [2]*Campaign{NewCampaign(spec), NewCampaign(spec)}
	var wg sync.WaitGroup
	errs := make([]error, len(camps))
	for ci, camp := range camps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, _, err := camp.Run(context.Background(), 10,
				RunOptions{Workers: 2, Cache: store, Obs: ObsConfig{Metrics: reg}})
			if err == nil && n != 4 {
				errs[ci] = context.DeadlineExceeded // any sentinel: wrong count
			} else {
				errs[ci] = err
			}
		}()
	}
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", ci, err)
		}
	}
	for _, camp := range camps {
		requireIdentical(t, ref, camp)
	}
	if v := reg.Counter("core.configs_solved").Value(); v != int64(spec.NConfigs) {
		t.Fatalf("two racing campaigns solved %d configurations, want exactly %d", v, spec.NConfigs)
	}
	if st := store.Stats(); st.Computes != int64(spec.NConfigs) {
		t.Fatalf("store stats: %v", st)
	}
}

// TestSequentialJournaledRunUsesCache: a journaled run on the calling
// goroutine goes through the result store like every other run - a warm
// store means zero solver iterations, and the hits still reach the
// journal, so the warm campaign stays crash-recoverable.
func TestSequentialJournaledRunUsesCache(t *testing.T) {
	ref := reference(t)
	store, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ref.Spec.NConfigs; i++ {
		blob, err := cache.EncodeFloatSeries(ref.C2[i], ref.CFH[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(SolveKey(ref.Spec, i), blob); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "warm.fwal")
	j, err := CreateJournal(path, campaignSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	warm := NewCampaign(campaignSpec())
	n, _, err := warm.Run(context.Background(), 10, RunOptions{Journal: j, Cache: store, Obs: ObsConfig{Metrics: reg}})
	if err != nil || n != 4 {
		t.Fatalf("warm journaled run: %d, %v", n, err)
	}
	if v := reg.Counter("core.solver_iterations").Value(); v != 0 {
		t.Fatalf("warm run performed %d solver iterations, want 0", v)
	}
	requireIdentical(t, ref, warm)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recovered, err := OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if recovered.Done() != 4 {
		t.Fatalf("journal holds %d records, want 4", recovered.Done())
	}
	requireIdentical(t, ref, recovered)
}
