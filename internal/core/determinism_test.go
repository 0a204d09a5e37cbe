package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"femtoverse/internal/cache"
	"femtoverse/internal/obs"
)

// TestRunEquivalenceMatrix holds every way of executing the one run path
// to the shared sequential reference, bit for bit: executor (inline, a
// 1-wide pool, a 3-wide pool) x journal (off, on) x result cache (none,
// cold, warm) x batching (whole, or two configurations then the rest:
// with a journal the campaign is dropped in between and restored from
// it, without one the same Campaign runs both batches). This holds
// because the per-configuration step is shared, configurations are
// independent, and every parallel reduction inside the solves combines
// its partial sums in deterministic chunk order. The solver-work
// counters must show all four configurations at every worker count, and
// none on a warm store.
func TestRunEquivalenceMatrix(t *testing.T) {
	ref := reference(t)
	for _, workers := range []int{0, 1, 3} {
		for _, journaled := range []bool{false, true} {
			for _, split := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/journal=%v/split=%v", workers, journaled, split)
				t.Run(name, func(t *testing.T) {
					runCell(t, ref, workers, journaled, split, nil, false)
					// The warm cell reopens the directory the cold cell
					// filled through a fresh cache instance: a restarted
					// tenant.
					dir := t.TempDir()
					for _, warm := range []bool{false, true} {
						store, err := cache.New(cache.Config{Dir: dir})
						if err != nil {
							t.Fatal(err)
						}
						runCell(t, ref, workers, journaled, split, store, warm)
					}
				})
			}
		}
	}
}

func runCell(t *testing.T, ref *Campaign, workers int, journaled, split bool, store *cache.Cache, warm bool) {
	t.Logf("cell: cache attached %v, warm %v", store != nil, warm)
	reg := obs.NewRegistry()
	opts := RunOptions{Workers: workers, Cache: store, Obs: ObsConfig{Metrics: reg}}
	camp := NewCampaign(campaignSpec())
	path := filepath.Join(t.TempDir(), "cell.fwal")
	if journaled {
		j, err := CreateJournal(path, campaignSpec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		opts.Journal = j
	}
	batches := []int{10}
	if split {
		batches = []int{2, 10}
	}
	for b, n := range batches {
		want := 4 / len(batches)
		before := 0
		if journaled {
			before = opts.Journal.Checkpoints()
		}
		done, rep, err := camp.Run(context.Background(), n, opts)
		if err != nil || done != want {
			t.Fatalf("batch %d: done %d (want %d), %v", b, done, want, err)
		}
		// A report exists exactly when a pool ran: never inline, and never
		// for a batch served entirely before admission.
		if (rep != nil) != (workers > 0 && !warm) {
			t.Fatalf("batch %d: report %+v", b, rep)
		}
		if rep != nil && (rep.Succeeded != 2*done || rep.Failed != 0 || rep.SolveWorkers != workers) {
			t.Fatalf("batch %d report: %+v", b, rep)
		}
		if journaled {
			// Cadence 1: one durable checkpoint per configuration.
			if got := opts.Journal.Checkpoints() - before; got != done {
				t.Fatalf("batch %d: %d checkpoints for %d configurations", b, got, done)
			}
			if rep != nil && rep.JournalCheckpoints != done {
				t.Fatalf("batch %d: report checkpoints %d, want %d", b, rep.JournalCheckpoints, done)
			}
		}
		if split && b == 0 && journaled {
			// The process dies here - no Close, no final sync - and the
			// next one picks the campaign up from what is on disk.
			var err error
			if opts.Journal, camp, err = OpenJournal(path, 1); err != nil {
				t.Fatal(err)
			}
			if camp.Done() != want || camp.Complete() {
				t.Fatalf("restored campaign: done %d", camp.Done())
			}
		}
	}
	requireIdentical(t, ref, camp)

	solved := reg.Counter("core.configs_solved").Value()
	iters := reg.Counter("core.solver_iterations").Value()
	flops := reg.Counter("core.solver_flops").Value()
	if warm {
		if solved != 0 || iters != 0 {
			t.Fatalf("warm run solved %d configurations in %d solver iterations, want 0", solved, iters)
		}
		if st := store.Stats(); st.Hits < 4 || st.Computes != 0 {
			t.Fatalf("warm store stats: %v", st)
		}
	} else {
		if solved != 4 || iters <= 0 || flops <= 0 {
			t.Fatalf("solver-work counters: %d configurations, %d iterations, %d flops", solved, iters, flops)
		}
		if store != nil && store.Stats().Computes != 4 {
			t.Fatalf("cold store stats: %v", store.Stats())
		}
	}
	if journaled {
		// The journal alone reconstructs the campaign, cache hits included.
		if err := opts.Journal.Close(); err != nil {
			t.Fatal(err)
		}
		j, recovered, err := OpenJournal(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, ref, recovered)
	}
}

// TestRunMatchesReferenceAnalysis: the top-level Run on a pool reproduces
// the sequential campaign's analysis exactly, including the jackknifed
// effective-coupling curve.
func TestRunMatchesReferenceAnalysis(t *testing.T) {
	want, err := reference(t).Result()
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := Run(context.Background(), campaignSpec(), RunOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Succeeded != 8 {
		t.Fatalf("report: %+v", rep)
	}
	if len(got.C2) != len(want.C2) {
		t.Fatalf("configs: %d vs %d", len(got.C2), len(want.C2))
	}
	for i := range want.C2 {
		for tt := range want.C2[i] {
			if want.C2[i][tt] != got.C2[i][tt] || want.CFH[i][tt] != got.CFH[i][tt] {
				t.Fatalf("config %d correlators differ at t=%d", i, tt)
			}
		}
	}
	for i := range want.Geff {
		if want.Geff[i] != got.Geff[i] || want.GeffErr[i] != got.GeffErr[i] {
			t.Fatalf("geff differs at t=%d: %v vs %v", i, want.Geff[i], got.Geff[i])
		}
	}
}

// TestSequentialRunCancels: the inline executor solves under the caller's
// context. Cancelling while the second of four configurations is being
// solved returns the context's error with the first configuration kept,
// and a second Run on the same campaign finishes it to the reference.
func TestSequentialRunCancels(t *testing.T) {
	ref := reference(t)
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watcher := make(chan struct{})
	go func() {
		// Configuration 0 has been solved once the counter moves; the
		// solve that is running by the time cancel lands is number two.
		defer close(watcher)
		for reg.Counter("core.configs_solved").Value() < 1 && ctx.Err() == nil {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	camp := NewCampaign(campaignSpec())
	done, rep, err := camp.Run(ctx, 10, RunOptions{Obs: ObsConfig{Metrics: reg}})
	cancel()
	<-watcher
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if done != 1 || camp.Done() != 1 || rep != nil {
		t.Fatalf("cancelled run: done %d, campaign holds %d, report %v", done, camp.Done(), rep)
	}
	if done, _, err = camp.Run(context.Background(), 10, RunOptions{}); err != nil || done != 3 {
		t.Fatalf("second run: %d, %v", done, err)
	}
	requireIdentical(t, ref, camp)
}
