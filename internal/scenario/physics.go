package scenario

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"femtoverse/internal/cache"
	"femtoverse/internal/core"
	"femtoverse/internal/obs"
	jobrt "femtoverse/internal/runtime"
)

// runPhysics executes the scenario's physics episode: a sequential
// unperturbed reference campaign establishes the correlator fingerprint,
// then every adversity-selected variant (concurrent, extra precisions,
// cache-warm, journal-resumed) must reproduce it bit-for-bit. Returns
// the fingerprint, the checks applied, and the violations found.
func (sc Scenario) runPhysics(ctx context.Context) (string, []string, []string, error) {
	var checks, viol []string
	spec := sc.Physics.Spec

	ref := core.NewCampaign(spec)
	if _, _, err := ref.Run(ctx, spec.NConfigs, core.RunOptions{}); err != nil {
		return "", nil, nil, fmt.Errorf("reference campaign: %w", err)
	}
	if !ref.Complete() {
		return "", nil, nil, fmt.Errorf("reference campaign incomplete: %d of %d", ref.Done(), spec.NConfigs)
	}
	fp := ref.Fingerprint()

	checks = append(checks, "physics-concurrent-bitident")
	conc := core.NewCampaign(spec)
	if _, _, err := conc.Run(ctx, spec.NConfigs, core.RunOptions{Workers: 2}); err != nil {
		return "", nil, nil, fmt.Errorf("concurrent campaign: %w", err)
	}
	if conc.Fingerprint() != fp {
		viol = append(viol, "physics: concurrent campaign diverged from sequential reference")
	}

	for _, prec := range sc.Physics.Precisions {
		if prec == spec.Prec {
			continue
		}
		if err := ctx.Err(); err != nil {
			return "", nil, nil, err
		}
		checks = append(checks, fmt.Sprintf("physics-%v-bitident", prec))
		spec2 := spec
		spec2.Prec = prec
		ref2 := core.NewCampaign(spec2)
		if _, _, err := ref2.Run(ctx, spec2.NConfigs, core.RunOptions{}); err != nil {
			return "", nil, nil, fmt.Errorf("%v reference campaign: %w", prec, err)
		}
		conc2 := core.NewCampaign(spec2)
		if _, _, err := conc2.Run(ctx, spec2.NConfigs, core.RunOptions{Workers: 2}); err != nil {
			return "", nil, nil, fmt.Errorf("%v concurrent campaign: %w", prec, err)
		}
		if conc2.Fingerprint() != ref2.Fingerprint() {
			viol = append(viol, fmt.Sprintf("physics: %v concurrent campaign diverged from its reference", prec))
		}
	}

	if sc.Physics.Cache {
		c, v, err := sc.cacheEpisode(ctx, fp)
		if err != nil {
			return "", nil, nil, err
		}
		checks = append(checks, c...)
		viol = append(viol, v...)
	}
	if sc.Physics.Journal {
		c, v, err := sc.journalEpisode(ctx, fp)
		if err != nil {
			return "", nil, nil, err
		}
		checks = append(checks, c...)
		viol = append(viol, v...)
	}
	return fp, checks, viol, nil
}

// cacheEpisode runs a cold cached campaign then a warm one over the same
// store directory. The warm run must be bit-identical to the reference;
// without corruption it must also be solve-free, and with corruption
// (CacheCorruption adversity damages every disk entry in between) the
// store must detect the damage, treat it as misses, and recompute.
func (sc Scenario) cacheEpisode(ctx context.Context, fp string) (checks, viol []string, err error) {
	spec := sc.Physics.Spec
	dir, err := os.MkdirTemp("", "scenario-cache-")
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()

	checks = append(checks, "physics-cache-cold-bitident")
	coldStore, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	cold := core.NewCampaign(spec)
	if _, _, err = cold.Run(ctx, spec.NConfigs, core.RunOptions{Workers: 2, Cache: coldStore}); err != nil {
		return nil, nil, fmt.Errorf("cold cached campaign: %w", err)
	}
	if cold.Fingerprint() != fp {
		viol = append(viol, "physics: cold cached campaign diverged from reference")
	}

	if sc.Physics.CorruptCache {
		n, cerr := corruptCacheDir(dir)
		if cerr != nil {
			return nil, nil, fmt.Errorf("corrupt cache entries: %w", cerr)
		}
		if n == 0 {
			viol = append(viol, "physics: cache-corruption episode found no disk entries to damage (vacuous)")
		}
	}

	reg := obs.NewRegistry()
	warmStore, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	warm := core.NewCampaign(spec)
	if _, _, err = warm.Run(ctx, spec.NConfigs,
		core.RunOptions{Workers: 2, Cache: warmStore, Obs: core.ObsConfig{Metrics: reg}}); err != nil {
		return nil, nil, fmt.Errorf("warm cached campaign: %w", err)
	}
	if warm.Fingerprint() != fp {
		viol = append(viol, "physics: warm cached campaign diverged from reference")
	}
	if sc.Physics.CorruptCache {
		checks = append(checks, "physics-cache-corruption-recompute")
		if warmStore.Stats().CorruptDropped == 0 {
			viol = append(viol, "physics: corrupted cache entries were never detected (vacuous corruption episode)")
		}
	} else {
		checks = append(checks, "physics-cache-warm-solvefree")
		if iters, _ := reg.Snapshot().CounterValue("core.solver_iterations"); iters != 0 {
			viol = append(viol, fmt.Sprintf("physics: warm cached campaign ran %d solver iterations, want 0", iters))
		}
		if hits := warmStore.Stats().Hits; hits < int64(spec.NConfigs) {
			viol = append(viol, fmt.Sprintf("physics: warm run hit the cache %d times for %d configurations", hits, spec.NConfigs))
		}
	}
	return checks, viol, nil
}

// corruptCacheDir flips one byte in every cache entry file under dir and
// returns how many entries it damaged.
func corruptCacheDir(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() || filepath.Ext(path) != ".fhio" {
			return nil
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if len(data) == 0 {
			return nil
		}
		data[len(data)/2] ^= 0x40
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			return werr
		}
		n++
		return nil
	})
	return n, err
}

// journalEpisode runs a write-ahead-journaled campaign that is
// interrupted mid-flight - by the scenario's preemption notice or its
// wall-clock budget - then resumes it from the journal and requires the
// resumed campaign to reproduce the reference fingerprint bit-for-bit.
func (sc Scenario) journalEpisode(ctx context.Context, fp string) (checks, viol []string, err error) {
	spec := sc.Physics.Spec
	dir, err := os.MkdirTemp("", "scenario-journal-")
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	path := filepath.Join(dir, "campaign.journal")

	checks = append(checks, "physics-journal-resume-bitident")
	j, err := core.CreateJournal(path, spec, 1)
	if err != nil {
		return nil, nil, err
	}
	interrupted := core.NewCampaign(spec)
	budget := jobrt.Budget{DrainGrace: 5 * time.Second}
	var preempt chan string
	if sc.Adversity == Preemption {
		preempt = make(chan string, 1)
		notice := time.AfterFunc(sc.Physics.NoticeAfter, func() { preempt <- PreemptReason })
		defer notice.Stop()
	} else {
		budget.WallClock = sc.Physics.JournalWall
	}
	if _, _, err = interrupted.Run(ctx, spec.NConfigs,
		core.RunOptions{Workers: 2, Journal: j, Budget: budget, Preempt: preempt}); err != nil {
		cerr := j.Close()
		return nil, nil, fmt.Errorf("interrupted campaign: %w (journal close: %v)", err, cerr)
	}
	if err = j.Close(); err != nil {
		return nil, nil, err
	}

	j2, resumed, err := core.OpenJournal(path, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("reopen journal: %w", err)
	}
	if _, _, err = resumed.Run(ctx, spec.NConfigs, core.RunOptions{Journal: j2}); err != nil {
		cerr := j2.Close()
		return nil, nil, fmt.Errorf("resumed campaign: %w (journal close: %v)", err, cerr)
	}
	if err = j2.Close(); err != nil {
		return nil, nil, err
	}
	if !resumed.Complete() {
		viol = append(viol, fmt.Sprintf("physics: resumed campaign finished %d of %d configurations", resumed.Done(), spec.NConfigs))
	}
	if resumed.Fingerprint() != fp {
		viol = append(viol, "physics: journal-resumed campaign diverged from reference")
	}
	return checks, viol, nil
}
