package dirac

import (
	"math/rand"
	"sync"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// TestViewMatchesParentWhileParentApplies is what a lane relies on: a view
// is its parent to the bit in all four entry points, at a split width of
// its own, and shares nothing with it that an application writes - the
// parent (and a second view) apply all the while, which is for the race
// detector to judge. The lattice is past For's serial cut, so the
// view's width 1 and the parent's width 3 really differ.
func TestViewMatchesParentWhileParentApplies(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	m, err := NewMobius(gauge.NewRandom(g, 5), MobiusParams{Ls: 4, M5: 1.3, B5: 1.25, C5: 0.25, M: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	m.W.Workers = 3
	p, err := NewMobiusEO(m)
	if err != nil {
		t.Fatal(err)
	}
	q := NewMobiusEO32(p)

	rng := rand.New(rand.NewSource(9))
	n := p.HalfSize()
	src, eta := randField(rng, n), randField(rng, p.M.Size())
	src32 := make([]complex64, n)
	linalg.Demote(src32, src)

	// What the parent says, alone.
	wantApply, wantDag := make([]complex128, n), make([]complex128, n)
	p.Apply(wantApply, src)
	p.ApplyDagger(wantDag, src)
	wantBhat, wantOdd := p.PrepareSource(eta)
	wantFull := p.Reconstruct(src, wantOdd)
	wantApply32, wantDag32 := make([]complex64, n), make([]complex64, n)
	q.Apply(wantApply32, src32)
	q.ApplyDagger(wantDag32, src32)

	stop := make(chan struct{})
	var busy sync.WaitGroup
	for _, op := range []*MobiusEO{p, p.View()} {
		op32 := q
		if op != p {
			op32 = q.View()
		}
		busy.Add(1)
		go func() {
			defer busy.Done()
			d, d32 := make([]complex128, n), make([]complex64, n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				op.Apply(d, src)
				op.ApplyDagger(d, src)
				op32.Apply(d32, src32)
				op32.ApplyDagger(d32, src32)
			}
		}()
	}

	v, v32 := p.View(), q.View()
	v.Workers, v32.Workers = 1, 1
	got, got32 := make([]complex128, n), make([]complex64, n)
	for rep := 0; rep < 3; rep++ {
		v.Apply(got, src)
		sameBits64(t, "view Apply", got, wantApply)
		v.ApplyDagger(got, src)
		sameBits64(t, "view ApplyDagger", got, wantDag)
		bhat, odd := v.PrepareSource(eta)
		sameBits64(t, "view PrepareSource bhat", bhat, wantBhat)
		sameBits64(t, "view PrepareSource etaOdd", odd, wantOdd)
		sameBits64(t, "view Reconstruct", v.Reconstruct(src, odd), wantFull)
		v32.Apply(got32, src32)
		sameBits32(t, "view32 Apply", got32, wantApply32)
		v32.ApplyDagger(got32, src32)
		sameBits32(t, "view32 ApplyDagger", got32, wantDag32)
	}
	close(stop)
	busy.Wait()
}
