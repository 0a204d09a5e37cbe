package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"femtoverse/internal/core"
)

// TestEndToEndJournalBatches drives the real binary through the one way a
// campaign persists: three invocations of -journal with -batch 1 each
// measure one configuration and leave the rest to the next, and a fourth
// on the finished journal measures and appends nothing and prints the
// final curve. The journal must replay to exactly the campaign core.Run
// computes in one piece for the same spec, and the printed curve must be
// that campaign's, digit for digit.
func TestEndToEndJournalBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: builds and runs the gasolve binary")
	}
	bin := filepath.Join(t.TempDir(), "gasolve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	path := filepath.Join(t.TempDir(), "campaign.fwal")
	args := []string{"-journal", path, "-l", "2", "-t", "6", "-ls", "4", "-configs", "3", "-seed", "5", "-batch", "1"}
	spec := realSpec(2, 6, 4, 3, 0.1, 5)

	run := func() string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("gasolve %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	for i := 1; i <= 3; i++ {
		out := run()
		if want := fmt.Sprintf("measured 1 configurations this allocation (%d/3 total)", i); !strings.Contains(out, want) {
			t.Fatalf("invocation %d: no %q in\n%s", i, want, out)
		}
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := run()
	if !strings.Contains(out, "measured 0 configurations this allocation (3/3 total)") {
		t.Fatalf("invocation on a complete journal measured something:\n%s", out)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, full) {
		t.Fatalf("invocation on a complete journal changed it: %d -> %d bytes", len(full), len(after))
	}

	j, got, err := core.OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Spec != spec {
		t.Fatalf("journal spec %+v, want %+v", got.Spec, spec)
	}
	res, _, err := core.Run(context.Background(), spec, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewCampaign(spec)
	for i := range res.C2 {
		want.C2[i], want.CFH[i] = res.C2[i], res.CFH[i]
	}
	if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
		t.Fatalf("journaled campaign fingerprint %.12s, core.Run %.12s", g, w)
	}
	for i := range res.Geff {
		if line := fmt.Sprintf("%3d  %10.4f  %10.4f\n", i, res.Geff[i], res.GeffErr[i]); !strings.Contains(out, line) {
			t.Fatalf("final curve lacks %q:\n%s", line, out)
		}
	}
}
