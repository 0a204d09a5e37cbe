// Campaign: production measurement campaigns run for months across many
// batch allocations, so the per-configuration results must be persisted
// and the campaign must resume exactly where it stopped. This example
// runs a small real-lattice FH campaign in two interrupted halves with a
// checkpoint between them, verifies the resumed physics is bit-for-bit
// identical to an uninterrupted run, and finishes with the jackknifed
// effective-coupling curve.
package main

import (
	"context"
	"fmt"
	"log"

	"femtoverse/internal/core"
	"femtoverse/internal/dirac"
	"femtoverse/internal/hio"
	"femtoverse/internal/solver"
)

func main() {
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
		log.Fatal(err)
	}

	// Interrupted run: first half, checkpoint, "crash", restore, finish.
	first := core.NewCampaign(spec)
	n, _, err := first.Run(ctx, 2, core.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allocation 1: measured %d configurations, checkpointing...\n", n)
	ckpt := hio.New()
	if err := first.Save(ckpt.Root()); err != nil {
		log.Fatal(err)
	}
	blob := ckpt.Encode()
	fmt.Printf("checkpoint: %d bytes (CRC-protected hio container)\n", len(blob))

	restored, err := hio.Decode(blob)
	if err != nil {
		log.Fatal(err)
	}
	second, err := core.LoadCampaign(restored.Root())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allocation 2: resumed with %d/%d done\n", second.Done(), spec.NConfigs)
	if _, _, err := second.Run(ctx, spec.NConfigs, core.RunOptions{}); err != nil {
		log.Fatal(err)
	}

	// Bit-for-bit agreement with the uninterrupted campaign.
	identical := true
	for i := 0; i < spec.NConfigs; i++ {
		for t := range ref.C2[i] {
			if ref.C2[i][t] != second.C2[i][t] || ref.CFH[i][t] != second.CFH[i][t] {
				identical = false
			}
		}
	}
	fmt.Printf("resumed campaign identical to uninterrupted run: %v\n", identical)

	geff, gerr, err := second.Geff()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfinal jackknifed effective coupling:")
	fmt.Println("  t    g_eff(t)      +-")
	for i := range geff {
		fmt.Printf("%3d  %10.4f  %10.4f\n", i, geff[i], gerr[i])
	}
}
