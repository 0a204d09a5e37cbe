package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"femtoverse/internal/cache"
	"femtoverse/internal/core"
	"femtoverse/internal/obs"

	jobrt "femtoverse/internal/runtime"
)

// tinySpec is the smallest real campaign that still exercises the full
// pipeline: a 2x2x2x4 lattice, single precision, a loose-but-honest
// tolerance. Seeds distinguish ensembles; identical (seed, n) pairs are
// identical campaigns, which is what the dedupe tests rely on.
func tinySpec(seed int64, n int) core.RealConfig {
	spec := core.DefaultRealConfig()
	spec.Dims = [4]int{2, 2, 2, 4}
	spec.Params.Ls = 2
	spec.ThermSweeps = 2
	spec.GapSweeps = 1
	spec.Tol = 1e-5
	spec.NConfigs = n
	spec.Seed = seed
	return spec
}

func newTestServer(t *testing.T, cfg Config) (*Server, *obs.Registry) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, cfg.Metrics
}

func newTestCache(t *testing.T, reg *obs.Registry) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func waitState(t *testing.T, s *Server, id, want string) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State == stateFailed && want != stateFailed {
			t.Fatalf("campaign %s failed: %s", id, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached state %q", id, want)
	return CampaignStatus{}
}

func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	v, _ := reg.Snapshot().CounterValue(name)
	return v
}

// TestFairShareStrideSchedule pins the dispatch order exactly: with one
// solve worker (strictly sequential dispatch) and the dispatcher paused
// until both tenants are queued, a weight-2 tenant receives two
// configurations per weight-1 configuration, interleaved by the stride
// schedule - not FIFO, and neither tenant starves.
func TestFairShareStrideSchedule(t *testing.T) {
	s, _ := newTestServer(t, Config{SolveWorkers: 1, ContractWorkers: 1, StartPaused: true})
	stA, err := s.SubmitCampaign("a", 1, "", tinySpec(101, 4))
	if err != nil {
		t.Fatal(err)
	}
	stB, err := s.SubmitCampaign("b", 2, "", tinySpec(202, 4))
	if err != nil {
		t.Fatal(err)
	}
	s.ResumeDispatch()
	waitState(t, s, stA.ID, stateComplete)
	waitState(t, s, stB.ID, stateComplete)

	log := s.DispatchLog()
	var got []string
	for _, e := range log {
		got = append(got, e[:strings.Index(e, "/")])
	}
	want := []string{"a", "b", "b", "a", "b", "b", "a", "a"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("dispatch order = %v, want %v", got, want)
	}
}

// TestPriorityAboveStrideOneRefused: a weight above strideOne would make
// the tenant's stride strideOne/weight zero, so its pass would never
// advance and it would take every pick from a backlogged weight-1
// tenant. Such a priority is refused at the door - an error from
// SubmitCampaign, a 400 naming the field over HTTP - while strideOne
// itself is admitted.
func TestPriorityAboveStrideOneRefused(t *testing.T) {
	s, _ := newTestServer(t, Config{SolveWorkers: 1, ContractWorkers: 1, StartPaused: true})
	if _, err := s.SubmitCampaign("a", 1, "", tinySpec(101, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitCampaign("hog", strideOne+1, "", tinySpec(202, 2)); err == nil || !strings.Contains(err.Error(), "priority") {
		t.Fatalf("priority %d submission: got %v, want a priority error", strideOne+1, err)
	}
	if _, err := s.SubmitCampaign("max", strideOne, "", tinySpec(303, 2)); err != nil {
		t.Fatalf("priority %d refused: %v", strideOne, err)
	}

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp := postJSON(t, hs.URL, fmt.Sprintf(`{"tenant":"hog","priority":%d,"spec":{"nconfigs":2}}`, strideOne+1))
	if body := drainBody(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "priority") {
		t.Fatalf("priority %d over HTTP: %d %s", strideOne+1, resp.StatusCode, body)
	}
}

// TestQuotaAdmission: an over-quota submission is refused with the
// runtime's admission vocabulary (ErrRefused), other tenants are
// unaffected, and finishing work frees the quota.
func TestQuotaAdmission(t *testing.T) {
	s, reg := newTestServer(t, Config{SolveWorkers: 2, DefaultQuota: 4, StartPaused: true})
	st1, err := s.SubmitCampaign("t1", 1, "", tinySpec(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitCampaign("t1", 1, "", tinySpec(2, 2)); !errors.Is(err, jobrt.ErrRefused) {
		t.Fatalf("over-quota submission: got %v, want ErrRefused", err)
	}
	st2, err := s.SubmitCampaign("t2", 1, "", tinySpec(3, 2))
	if err != nil {
		t.Fatalf("other tenant refused by t1's quota: %v", err)
	}
	s.ResumeDispatch()
	waitState(t, s, st1.ID, stateComplete)
	waitState(t, s, st2.ID, stateComplete)
	if _, err := s.SubmitCampaign("t1", 1, "", tinySpec(4, 2)); err != nil {
		t.Fatalf("quota not freed by completion: %v", err)
	}
	if v := counterValue(t, reg, "serve.refused_quota"); v != 1 {
		t.Fatalf("serve.refused_quota = %d, want 1", v)
	}
}

// TestCrossTenantWarmDuplicate: a second tenant submitting the exact
// campaign a first tenant already ran gets bit-for-bit the same answer
// from the shared cache with zero additional solver iterations.
func TestCrossTenantWarmDuplicate(t *testing.T) {
	reg := obs.NewRegistry()
	store := newTestCache(t, reg)
	s, _ := newTestServer(t, Config{SolveWorkers: 2, Cache: store, Metrics: reg})
	spec := tinySpec(7, 3)

	stA, err := s.SubmitCampaign("alpha", 1, "", spec)
	if err != nil {
		t.Fatal(err)
	}
	stA = waitState(t, s, stA.ID, stateComplete)
	iters := counterValue(t, reg, "core.solver_iterations")
	solved := counterValue(t, reg, "core.configs_solved")
	if solved != int64(spec.NConfigs) || iters == 0 {
		t.Fatalf("cold campaign: solved=%d iters=%d", solved, iters)
	}

	stB, err := s.SubmitCampaign("beta", 1, "", spec)
	if err != nil {
		t.Fatal(err)
	}
	stB = waitState(t, s, stB.ID, stateComplete)
	if stB.Fingerprint == "" || stB.Fingerprint != stA.Fingerprint {
		t.Fatalf("fingerprints differ: %q vs %q", stA.Fingerprint, stB.Fingerprint)
	}
	if v := counterValue(t, reg, "core.solver_iterations"); v != iters {
		t.Fatalf("warm duplicate ran the solver: iterations %d -> %d", iters, v)
	}
	if v := counterValue(t, reg, "core.configs_solved"); v != solved {
		t.Fatalf("warm duplicate solved configs: %d -> %d", solved, v)
	}
	if st := store.Stats(); st.Computes != int64(spec.NConfigs) {
		t.Fatalf("store computes = %d, want %d", st.Computes, spec.NConfigs)
	}
	for i := range stA.Geff {
		if stA.Geff[i] != stB.Geff[i] || stA.GeffErr[i] != stB.GeffErr[i] {
			t.Fatalf("effective coupling differs at t=%d", i)
		}
	}
}

// TestConcurrentDuplicateCoalesces: two tenants submitting the same
// campaign at the same time share each configuration's compute through
// the cache's singleflight - total computes equals the configuration
// count no matter how the solves interleave.
func TestConcurrentDuplicateCoalesces(t *testing.T) {
	store := newTestCache(t, nil)
	s, _ := newTestServer(t, Config{SolveWorkers: 2, Cache: store, StartPaused: true})
	spec := tinySpec(9, 2)
	stA, err := s.SubmitCampaign("a", 1, "", spec)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := s.SubmitCampaign("b", 1, "", spec)
	if err != nil {
		t.Fatal(err)
	}
	s.ResumeDispatch()
	stA = waitState(t, s, stA.ID, stateComplete)
	stB = waitState(t, s, stB.ID, stateComplete)
	if stA.Fingerprint != stB.Fingerprint {
		t.Fatalf("fingerprints differ: %q vs %q", stA.Fingerprint, stB.Fingerprint)
	}
	if st := store.Stats(); st.Computes != int64(spec.NConfigs) {
		t.Fatalf("store computes = %d, want %d (duplicates must coalesce or hit)", st.Computes, spec.NConfigs)
	}
}

// TestDrainRestartResumesBitForBit is the zero-downtime restart
// contract: shutdown mid-campaign journals what finished, a new server
// generation over the same state directory (with a cold cache, so the
// journal alone carries the prefix) runs only the remainder, and the
// final fingerprint is identical to an uninterrupted run's.
func TestDrainRestartResumesBitForBit(t *testing.T) {
	stateDir := t.TempDir()
	spec := tinySpec(42, 4)

	reg1 := obs.NewRegistry()
	s1, err := New(context.Background(), Config{
		StateDir: stateDir, SolveWorkers: 1, ContractWorkers: 1,
		Cache: newTestCache(t, nil), Metrics: reg1, DrainGrace: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.SubmitCampaign("gamma", 1, "interrupted", spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one configuration land, then pull the plug.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		cur, err := s1.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no configuration finished before the drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Generation two: same state directory, cold cache, paused so the
	// journaled prefix is observable before any new work runs.
	reg2 := obs.NewRegistry()
	s2, err := New(context.Background(), Config{
		StateDir: stateDir, SolveWorkers: 1, ContractWorkers: 1,
		Cache: newTestCache(t, nil), Metrics: reg2, StartPaused: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s2.Shutdown(ctx); err != nil {
			t.Errorf("shutdown gen2: %v", err)
		}
	})
	st2, err := s2.Status(st.ID)
	if err != nil {
		t.Fatalf("campaign lost across restart: %v", err)
	}
	journaled := st2.Done
	if journaled < 1 {
		t.Fatalf("journal lost the finished configurations: done=%d", journaled)
	}
	if st2.State != stateComplete {
		s2.ResumeDispatch()
		st2 = waitState(t, s2, st.ID, stateComplete)
	}
	if resolved := counterValue(t, reg2, "core.configs_solved"); resolved != int64(spec.NConfigs-journaled) {
		t.Fatalf("resumed server solved %d configs, want %d (journaled prefix must not re-run)",
			resolved, spec.NConfigs-journaled)
	}

	// Reference: the same spec, uninterrupted, on a fresh universe.
	ref, _ := newTestServer(t, Config{SolveWorkers: 1, ContractWorkers: 1})
	stRef, err := ref.SubmitCampaign("ref", 1, "", spec)
	if err != nil {
		t.Fatal(err)
	}
	stRef = waitState(t, ref, stRef.ID, stateComplete)
	if st2.Fingerprint != stRef.Fingerprint {
		t.Fatalf("resumed fingerprint %q != uninterrupted fingerprint %q", st2.Fingerprint, stRef.Fingerprint)
	}
	for i := range stRef.Geff {
		if st2.Geff[i] != stRef.Geff[i] {
			t.Fatalf("resumed effective coupling differs at t=%d", i)
		}
	}
}

// TestMetricsDeterministicForFixedWorkload: two fresh servers given the
// same sequential workload render byte-identical /metrics text - the
// reason the pool's timing histograms are deliberately not attached.
func TestMetricsDeterministicForFixedWorkload(t *testing.T) {
	run := func() string {
		reg := obs.NewRegistry()
		s, _ := newTestServer(t, Config{SolveWorkers: 2, Cache: newTestCache(t, reg), Metrics: reg})
		a, err := s.SubmitCampaign("a", 1, "", tinySpec(5, 2))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, a.ID, stateComplete)
		b, err := s.SubmitCampaign("b", 1, "", tinySpec(5, 2)) // warm duplicate
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, b.ID, stateComplete)
		c, err := s.SubmitCampaign("a", 1, "", tinySpec(6, 2))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, c.ID, stateComplete)
		return s.MetricsText()
	}
	m1 := run()
	m2 := run()
	if m1 != m2 {
		t.Fatalf("metrics text differs across identical workloads:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", m1, m2)
	}
	if !strings.Contains(m1, "serve.campaigns_completed") || !strings.Contains(m1, "core.solver_iterations") {
		t.Fatalf("metrics text missing expected series:\n%s", m1)
	}
}
