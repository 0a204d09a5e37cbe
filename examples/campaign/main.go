// Campaign: production measurement campaigns run for months across many
// batch allocations, so the per-configuration results must be persisted
// and the campaign must resume exactly where it stopped. This example
// runs a small real-lattice FH campaign in two interrupted halves: the
// first allocation logs each configuration to a write-ahead journal as it
// finishes, the second reopens the journal and finishes the rest. It
// verifies the resumed physics is bit-for-bit identical to an
// uninterrupted run - exiting non-zero if it is not - and finishes with
// the jackknifed effective-coupling curve.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"femtoverse/internal/core"
	"femtoverse/internal/dirac"
	"femtoverse/internal/solver"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	spec := core.RealConfig{
		Dims:        [4]int{2, 2, 2, 8},
		Params:      dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.15},
		NConfigs:    4,
		Seed:        23,
		Beta:        5.8,
		ThermSweeps: 5,
		GapSweeps:   2,
		Tol:         1e-8,
		Prec:        solver.Single,
	}

	// Reference: the whole campaign uninterrupted.
	ref := core.NewCampaign(spec)
	if _, _, err := ref.Run(ctx, spec.NConfigs, core.RunOptions{}); err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "campaign")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "campaign.fwal")

	// Allocation 1: measure half the campaign, each configuration
	// appended (and fsynced) to the journal the moment it finishes.
	j, err := core.CreateJournal(path, spec, 1)
	if err != nil {
		return err
	}
	n, _, err := core.NewCampaign(spec).Run(ctx, 2, core.RunOptions{Journal: j})
	if err != nil {
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("allocation 1: measured %d configurations, journal %d bytes (CRC-framed records)\n", n, st.Size())

	// Allocation 2: a new process knows only the journal's path.
	j, second, err := core.OpenJournal(path, 1)
	if err != nil {
		return err
	}
	fmt.Printf("allocation 2: resumed with %d/%d done\n", second.Done(), spec.NConfigs)
	_, _, err = second.Run(ctx, spec.NConfigs, core.RunOptions{Journal: j})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Bit-for-bit agreement with the uninterrupted campaign.
	identical := second.Fingerprint() == ref.Fingerprint()
	fmt.Printf("resumed campaign identical to uninterrupted run: %v\n", identical)
	if !identical {
		return fmt.Errorf("resumed campaign differs from the uninterrupted run")
	}

	geff, gerr, err := second.Geff()
	if err != nil {
		return err
	}
	fmt.Println("\nfinal jackknifed effective coupling:")
	fmt.Println("  t    g_eff(t)      +-")
	for i := range geff {
		fmt.Printf("%3d  %10.4f  %10.4f\n", i, geff[i], gerr[i])
	}
	return nil
}
