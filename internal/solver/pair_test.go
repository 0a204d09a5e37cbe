package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
)

// nanPair32 is nanAfter32 for one system of a batched normal operator:
// the system whose ApplyNormal output is target, its workspace's image of
// the direction. The operator applies every system its own way - in pairs,
// or one at a time where solo is set - and then, where nanAfter32 would
// poison the system's Apply output, applies the target again as
// nanAfter32's composition does, with the NaN in D src.
type nanPair32 struct {
	*dirac.MobiusEO32
	solo        bool
	target      *complex64
	applies     int
	from, until int
}

func (o *nanPair32) ApplyNormal(dst, src [][]complex64) {
	if o.solo {
		for k := range src {
			o.MobiusEO32.ApplyNormal(dst[k:k+1], src[k:k+1])
		}
	} else {
		o.MobiusEO32.ApplyNormal(dst, src)
	}
	for k := range dst {
		if &dst[k][0] != o.target {
			continue
		}
		o.applies++
		if o.applies > o.from && (o.until < 0 || o.applies <= o.until) {
			tmp := make([]complex64, len(src[k]))
			o.Apply(tmp, src[k])
			tmp[0] = complex(float32(math.NaN()), 0)
			o.ApplyDagger(dst[k], tmp)
		}
	}
}

// stopAfter is a context cancelled at its n-th check: a cancellation at a
// fixed iteration of whichever solve checks it.
type stopAfter struct {
	context.Context
	checks, n int
}

func (c *stopAfter) Err() error {
	if c.checks++; c.checks > c.n {
		return context.Canceled
	}
	return nil
}

// sameSolve fails unless two solves of one system returned the same
// solution, stats and error, to the bit.
func sameSolve(t *testing.T, what string, x []complex128, st Stats, err error, wx []complex128, wst Stats, werr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, want %v", what, err, werr)
	}
	if st.Iterations != wst.Iterations || st.ReliableUpdates != wst.ReliableUpdates || st.Restarts != wst.Restarts ||
		st.Flops != wst.Flops || st.Converged != wst.Converged || st.Precision != wst.Precision ||
		math.Float64bits(st.TrueResidual) != math.Float64bits(wst.TrueResidual) {
		t.Fatalf("%s: stats %+v, want %+v", what, st, wst)
	}
	if !slices.EqualFunc(st.Residuals, wst.Residuals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: residuals %v, want %v", what, st.Residuals, wst.Residuals)
	}
	if len(x) != len(wx) {
		t.Fatalf("%s: %d solution elements, want %d", what, len(x), len(wx))
	}
	for i := range wx {
		if math.Float64bits(real(x[i])) != math.Float64bits(real(wx[i])) ||
			math.Float64bits(imag(x[i])) != math.Float64bits(imag(wx[i])) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, x[i], wx[i])
		}
	}
}

// lockStep1 is CGNEMixedLockStep on the one system b, solved in ws.
func lockStep1(ws *Workspace, ctx context.Context, op Linear, sloppy Linear32, b []complex128, p Params) ([]complex128, Stats, error) {
	sys := []System{{Ctx: ctx, WS: ws, B: b}}
	CGNEMixedLockStep(op, sloppy, p, sys)
	return sys[0].X, sys[0].Stats, sys[0].Err
}

// poison is a NaN schedule of nanAfter32 for one system, or none.
type poison struct{ from, until int }

// mixedCases are the systems the drive is held to, one alone and two in
// lock-step: both precisions, escalation Half -> Single and Half -> Single ->
// Double by the NaN injection of TestMixedNaNEscalatesHalfToSingle and
// ToDouble, divergence with no restarts left, a cancellation mid-solve, a
// zero right-hand side and the iteration cap.
var mixedCases = []struct {
	name   string
	p      Params
	poison [2]*poison
	stop   [2]int // cancel at this many context checks; 0 for never
	zero   [2]bool
}{
	{name: "single", p: Params{Tol: 1e-8, Precision: Single}},
	{name: "half", p: Params{Tol: 1e-8, Precision: Half}},
	{name: "A half to single", p: Params{Tol: 1e-8, Precision: Half}, poison: [2]*poison{{4, 5}}},
	{name: "A half to double", p: Params{Tol: 1e-8, Precision: Half}, poison: [2]*poison{{2, -1}}},
	{name: "B half to double", p: Params{Tol: 1e-8, Precision: Half}, poison: [2]*poison{nil, {9, -1}}},
	{name: "B diverges", p: Params{Tol: 1e-8, Precision: Single, MaxRestarts: -1}, poison: [2]*poison{nil, {6, -1}}},
	{name: "B cancelled", p: Params{Tol: 1e-8, Precision: Single}, stop: [2]int{0, 20}},
	{name: "A cancelled first", p: Params{Tol: 1e-8, Precision: Half}, stop: [2]int{3, 0}},
	{name: "A zero", p: Params{Tol: 1e-8, Precision: Single, RecordResiduals: true}, zero: [2]bool{true}},
	{name: "iteration cap", p: Params{Tol: 1e-12, Precision: Half, MaxIter: 15, RecordResiduals: true}},
}

// TestCGNEMixedMatchesLoopBitForBit holds the drive on one system, on a
// kept workspace, to the loop it replaced (refCGNEMixed) on every case of
// mixedCases.
func TestCGNEMixedMatchesLoopBitForBit(t *testing.T) {
	eo := newTestEO(t, 11, 0.08)
	rng := rand.New(rand.NewSource(21))
	for _, c := range mixedCases {
		for k := range c.poison {
			b := randRHS(rng, eo.Size())
			if c.zero[k] {
				clear(b)
			}
			sloppy := func() Linear32 {
				if q := c.poison[k]; q != nil {
					return &nanAfter32{inner: dirac.NewMobiusEO32(eo), from: q.from, until: q.until}
				}
				return dirac.NewMobiusEO32(eo)
			}
			ctx := func() context.Context {
				if c.stop[k] > 0 {
					return &stopAfter{Context: context.Background(), n: c.stop[k]}
				}
				return context.Background()
			}
			var ws, wsRef Workspace
			x, st, err := lockStep1(&ws, ctx(), eo, sloppy(), b, c.p)
			wx, wst, werr := refCGNEMixed(&wsRef, ctx(), eo, sloppy(), b, c.p)
			sameSolve(t, fmt.Sprintf("%s system %d", c.name, k), x, st, err, wx, wst, werr)
		}
	}
}

// TestCGNEMixedPairMatchesSoloBitForBit holds each system of a drive of
// one to five systems in lock-step - pairs through the pair bodies and an
// odd one alone, or, with the pairing switched off, every one alone, both
// through the fused normal operator - to the same system solved by the
// loop the drive replaced (refCGNEMixed), which shares no code with it,
// on every case of mixedCases: the solution, the iterations, the reliable
// updates, the restarts and the rest of the stats, and the error, to the
// bit, also where a partner converges while the system escalates, fails
// or is cancelled. The case's two systems are the drive's last two, so
// four systems are two pairs with the case in the second.
func TestCGNEMixedPairMatchesSoloBitForBit(t *testing.T) {
	eo := newTestEO(t, 11, 0.08)
	n := eo.Size()
	rng := rand.New(rand.NewSource(22))
	for _, c := range mixedCases {
		var b [5][]complex128
		for j := range b {
			b[j] = randRHS(rng, n)
		}
		// role is what system j of a drive of k plays: the case's system
		// A (0) or B (1), or a plain solve (-1).
		role := func(j, k int) int {
			if r := j - max(k-2, 0); r >= 0 {
				return r
			}
			return -1
		}
		type solve struct {
			x   []complex128
			st  Stats
			err error
		}
		refs := map[[2]int]solve{}
		ref := func(j, r int) solve {
			if w, ok := refs[[2]int{j, r}]; ok {
				return w
			}
			var sloppy Linear32 = dirac.NewMobiusEO32(eo)
			ctx, bj := context.Background(), b[j]
			if r >= 0 {
				if q := c.poison[r]; q != nil {
					sloppy = &nanAfter32{inner: sloppy, from: q.from, until: q.until}
				}
				if c.stop[r] > 0 {
					ctx = &stopAfter{Context: context.Background(), n: c.stop[r]}
				}
				if c.zero[r] {
					bj = make([]complex128, n)
				}
			}
			var w solve
			w.x, w.st, w.err = refCGNEMixed(new(Workspace), ctx, eo, sloppy, bj, c.p)
			refs[[2]int{j, r}] = w
			return w
		}
		for k := 1; k <= len(b); k++ {
			for _, solo := range []bool{false, true} {
				sloppy := &nanPair32{MobiusEO32: dirac.NewMobiusEO32(eo), solo: solo, until: -1}
				sys := make([]System, k)
				for j := range sys {
					sys[j] = System{Ctx: context.Background(), WS: new(Workspace), B: b[j]}
					sys[j].WS.size(n)
					r := role(j, k)
					if r < 0 {
						continue
					}
					if c.stop[r] > 0 {
						sys[j].Ctx = &stopAfter{Context: context.Background(), n: c.stop[r]}
					}
					if c.zero[r] {
						sys[j].B = make([]complex128, n)
					}
					if q := c.poison[r]; q != nil {
						sloppy.target, sloppy.from, sloppy.until = &sys[j].WS.ap[0], q.from, q.until
					}
				}
				CGNEMixedLockStep(eo, sloppy, c.p, sys)
				for j := range sys {
					w := ref(j, role(j, k))
					sameSolve(t, fmt.Sprintf("%s: system %d of %d (solo %v)", c.name, j, k, solo), sys[j].X, sys[j].Stats, sys[j].Err, w.x, w.st, w.err)
				}
				if c.name == "B diverges" && k >= 2 && (sys[k-2].Err != nil || !errors.Is(sys[k-1].Err, ErrDiverged)) {
					t.Fatalf("%s of %d: errors %v and %v, want B's divergence alone", c.name, k, sys[k-2].Err, sys[k-1].Err)
				}
			}
		}
	}
}

// BenchmarkCGNEMixedPaired judges the drive in pairs of adjacent solves,
// alternating which runs first, on the fh-* lattice (hv = 64, Ls = 4, one
// worker): the drive on one system against the loop it replaced (drive),
// and on two systems against two one-system solves (pair; a ratio of 0.5
// is two systems at the cost of one). It reports the median ratio and its
// quartiles. Run with -cpu 1 -benchtime 60x.
func BenchmarkCGNEMixedPaired(b *testing.B) {
	g := lattice.MustNew(2, 2, 4, 8)
	m, err := dirac.NewMobius(gauge.NewWeak(g, 77, 0.3), dirac.MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	m.W.Workers = 1
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		b.Fatal(err)
	}
	sloppy := dirac.NewMobiusEO32(eo)
	rng := rand.New(rand.NewSource(5))
	rhs := [2][]complex128{randRHS(rng, eo.Size()), randRHS(rng, eo.Size())}
	p := Params{Tol: 1e-8, Precision: Single, Workers: 1}
	var ws [2]Workspace
	bg := context.Background()
	drive := func() { lockStep1(&ws[0], bg, eo, sloppy, rhs[0], p) }
	loop := func() { refCGNEMixed(&ws[0], bg, eo, sloppy, rhs[0], p) }
	pair := func() {
		CGNEMixedLockStep(eo, sloppy, p, []System{{Ctx: bg, WS: &ws[0], B: rhs[0]}, {Ctx: bg, WS: &ws[1], B: rhs[1]}})
	}
	solos := func() { drive(); lockStep1(&ws[1], bg, eo, sloppy, rhs[1], p) }
	for _, c := range []struct {
		name      string
		cand, ref func()
	}{
		{"drive", drive, loop},
		{"pair", pair, solos},
		{"aa", drive, drive},
	} {
		b.Run(c.name, func(b *testing.B) {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c.cand()
			c.ref()
			ratios := make([]float64, b.N)
			for i := range ratios {
				first, second := c.cand, c.ref
				if i%2 == 1 {
					first, second = second, first
				}
				t0 := time.Now()
				first()
				t1 := time.Now()
				second()
				t2 := time.Now()
				tc, tr := t1.Sub(t0), t2.Sub(t1)
				if i%2 == 1 {
					tc, tr = tr, tc
				}
				ratios[i] = float64(tc) / float64(tr)
			}
			slices.Sort(ratios)
			b.ReportMetric(ratios[len(ratios)/2], "ratio")
			b.ReportMetric(ratios[len(ratios)/4], "ratio_q1")
			b.ReportMetric(ratios[len(ratios)*3/4], "ratio_q3")
		})
	}
}
