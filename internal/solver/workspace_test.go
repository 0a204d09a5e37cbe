package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
)

// TestWorkspaceReuseIsBitIdentical solves a run of systems on one
// Workspace and holds each to the fresh-workspace function: what a solve
// leaves in the vectors - a converged system's residue, a cancelled
// solve's, a poisoned right-hand side's NaNs, another size's - must not
// reach the next one. It also counts what the reuse is for.
func TestWorkspaceReuseIsBitIdentical(t *testing.T) {
	var ops []*dirac.MobiusEO
	for _, dims := range [][4]int{{2, 2, 2, 4}, {2, 2, 2, 2}} {
		g := lattice.MustNew(dims[0], dims[1], dims[2], dims[3])
		m, err := dirac.NewMobius(gauge.NewWeak(g, 7, 0.3), dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		op, err := dirac.NewMobiusEO(m)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(2))
	var ws Workspace
	for i, c := range []struct {
		op     int
		prec   Precision
		ctx    context.Context
		poison bool
	}{
		{0, Single, context.Background(), false},
		{0, Half, context.Background(), false},
		{0, Single, cancelled, false},
		{0, Single, context.Background(), false},
		{0, Single, context.Background(), true},
		{0, Half, context.Background(), false},
		{1, Single, context.Background(), false},
		{0, Single, context.Background(), false},
	} {
		op := ops[c.op]
		sloppy := dirac.NewMobiusEO32(op)
		b := randRHS(rng, op.Size())
		if c.poison {
			b[3] = complex(math.NaN(), 0)
		}
		p := Params{Tol: 1e-8, Precision: c.prec}
		want, wantSt, wantErr := CGNEMixed(c.ctx, op, sloppy, b, p)
		got, gotSt, gotErr := lockStep1(&ws, c.ctx, op, sloppy, b, p)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (c.poison && !errors.Is(gotErr, ErrDiverged)) {
			t.Fatalf("solve %d: error %v, fresh workspace %v", i, gotErr, wantErr)
		}
		if gotSt.Iterations != wantSt.Iterations || gotSt.Flops != wantSt.Flops ||
			gotSt.ReliableUpdates != wantSt.ReliableUpdates || gotSt.Restarts != wantSt.Restarts ||
			math.Float64bits(gotSt.TrueResidual) != math.Float64bits(wantSt.TrueResidual) {
			t.Fatalf("solve %d: stats %+v, fresh workspace %+v", i, gotSt, wantSt)
		}
		for k := range want {
			if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
				math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
				t.Fatalf("solve %d: element %d is %v, fresh workspace %v", i, k, got[k], want[k])
			}
		}
	}

	op, sloppy := ops[0], dirac.NewMobiusEO32(ops[0])
	b := randRHS(rng, op.Size())
	solve := func(ws *Workspace) {
		if _, _, err := lockStep1(ws, context.Background(), op, sloppy, b, Params{Tol: 1e-8, Precision: Single}); err != nil {
			t.Fatal(err)
		}
	}
	kept := testing.AllocsPerRun(3, func() { solve(&ws) })
	fresh := testing.AllocsPerRun(3, func() { solve(new(Workspace)) })
	if kept > fresh-2 {
		t.Fatalf("%v allocations a solve on a kept workspace, %v on a fresh one", kept, fresh)
	}
}
