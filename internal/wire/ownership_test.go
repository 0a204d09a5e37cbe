package wire

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"femtoverse/internal/dirac"
	"femtoverse/internal/fault"
	"femtoverse/internal/lattice"
	"femtoverse/internal/obs"
	"femtoverse/internal/solver"
)

// policies are the four halo policies, eager/staged x fine/coarse.
var policies = []struct {
	name           string
	coarse, staged bool
}{
	{"eager-fine", false, false},
	{"eager-coarse", true, false},
	{"staged-fine", false, true},
	{"staged-coarse", true, true},
}

// TestSessionApplyDoesNotAllocate pins the single-copy data path: once
// the buffers have grown to the frames they carry, a distributed
// application - coordinator, both workers, their readers and heartbeats,
// all in this process - allocates next to nothing. The budget is per
// apply; one field alone is 48 KiB and the parent of this path spent
// 1.7 MB on each.
func TestSessionApplyDoesNotAllocate(t *testing.T) {
	const budget = 4 << 10
	dims := [lattice.NDim]int{4, 4, 4, 4}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			s, _, _ := testSession(t, dims, [lattice.NDim]int{1, 1, 1, 2}, func(o *Options) {
				o.Coarse, o.Staged = pol.coarse, pol.staged
			})
			src := randomSource(s.Size(), 5)
			dst := make([]complex128, s.Size())
			one := [2][][]complex128{{dst}, {src}}
			for i := 0; i < 10; i++ {
				s.Apply(dst, src)
				s.ApplyDagger(dst, src)
				s.ApplyNormal(one[0], one[1])
			}
			const n = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				s.Apply(dst, src)
				s.ApplyNormal(one[0], one[1])
			}
			runtime.ReadMemStats(&after)
			per := (after.TotalAlloc - before.TotalAlloc) / (2 * n)
			if per > budget {
				t.Fatalf("%d bytes allocated per apply, budget %d", per, budget)
			}
			t.Logf("%d bytes allocated per apply", per)
		})
	}
}

// TestSessionNormalBitwise checks ApplyNormal on two systems against the
// composition it stands for, on the session and against the flat
// operator, under every halo policy and on a grid where the two stencil
// stages of a request meet distinct neighbors.
func TestSessionNormalBitwise(t *testing.T) {
	dims := [lattice.NDim]int{4, 4, 4, 8}
	for _, grid := range [][lattice.NDim]int{{1, 1, 1, 2}, {1, 1, 1, 4}} {
		for _, pol := range policies {
			s, u, _ := testSession(t, dims, grid, func(o *Options) {
				o.Coarse, o.Staged = pol.coarse, pol.staged
			})
			w := dirac.NewWilson(u, 0.1)
			src := [][]complex128{randomSource(s.Size(), 5), randomSource(s.Size(), 6)}
			tmp := make([]complex128, s.Size())
			want := make([]complex128, s.Size())
			got := [][]complex128{make([]complex128, s.Size()), make([]complex128, s.Size())}
			// Twice: the second request meets the first one's staged faces.
			for rep := 0; rep < 2; rep++ {
				s.ApplyNormal(got, src)
				for k := range src {
					s.Apply(tmp, src[k])
					s.ApplyDagger(want, tmp)
					if d := bitDiff(got[k], want); d != 0 {
						t.Fatalf("grid %v %s rep %d system %d: ApplyNormal differs from ApplyDagger(Apply) in %d components", grid, pol.name, rep, k, d)
					}
					w.Apply(tmp, src[k])
					w.ApplyDagger(want, tmp)
					if d := bitDiff(got[k], want); d != 0 {
						t.Fatalf("grid %v %s rep %d system %d: ApplyNormal differs from the flat operator in %d components", grid, pol.name, rep, k, d)
					}
				}
			}
			s.Close()
		}
	}
}

// TestSessionCGNEThroughApplyNormalBitForBit solves once through the
// session as it is - a solver.Normal, so CGNE takes ApplyNormal - and once
// with the method hidden, so every iteration pays two round trips: same
// solution, same iteration count, same residual history, half the
// requests.
func TestSessionCGNEThroughApplyNormalBitForBit(t *testing.T) {
	dims := [lattice.NDim]int{4, 4, 4, 8}
	grid := [lattice.NDim]int{1, 1, 1, 2}
	p := solver.Params{Tol: 1e-8, RecordResiduals: true}
	b := randomSource(dims[0]*dims[1]*dims[2]*dims[3]*spinorComplexLen, 17)

	s, _, reg := testSession(t, dims, grid, nil)
	if _, ok := any(s).(solver.Normal[complex128]); !ok {
		t.Fatal("Session is not a solver.Normal")
	}
	x, st, err := solver.CGNE(context.Background(), s, b, p)
	if err != nil {
		t.Fatal(err)
	}
	sRef, _, regRef := testSession(t, dims, grid, nil)
	xRef, stRef, err := solver.CGNE(context.Background(), struct{ solver.Linear }{sRef}, b, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != stRef.Iterations || len(st.Residuals) != len(stRef.Residuals) {
		t.Fatalf("iterations %d vs %d", st.Iterations, stRef.Iterations)
	}
	for i := range st.Residuals {
		if math.Float64bits(st.Residuals[i]) != math.Float64bits(stRef.Residuals[i]) {
			t.Fatalf("residual %d: %v vs %v", i, st.Residuals[i], stRef.Residuals[i])
		}
	}
	if d := bitDiff(x, xRef); d != 0 {
		t.Fatalf("%d/%d solution components differ bitwise", d, len(x))
	}
	// Same operator applications, same halo traffic - the exchange is per
	// stencil, not per request.
	for _, name := range []string{"wire.applies", "wire.halo_frames", "wire.halo_wire_bytes"} {
		if got, want := reg.Counter(name).Value(), regRef.Counter(name).Value(); got != want {
			t.Fatalf("%s: %d through ApplyNormal, %d through the pair", name, got, want)
		}
	}
}

// TestSessionNoPayloadOutlivesRecv runs whole solves with every
// connection scribbling over each received frame the moment its consumer
// asks for the next: a clean 2- and 4-rank solve, one with a rank killed
// between the two stencils of a normal apply and recovered, and one under
// a corruption-and-drop plan. Any consumer still holding a payload - a
// source field, a ghost face, a result, a peer table - would compute on
// scribble, and the solution would not be the single-process one bit for
// bit.
func TestSessionNoPayloadOutlivesRecv(t *testing.T) {
	poisonReads.Store(true)
	t.Cleanup(func() { poisonReads.Store(false) })

	dims := [lattice.NDim]int{4, 4, 4, 8}
	cases := []struct {
		name   string
		grid   [lattice.NDim]int
		mutate func(*Options)
		check  func(*testing.T, *obs.Registry)
	}{
		{name: "2-rank", grid: [lattice.NDim]int{1, 1, 1, 2}},
		{name: "4-rank", grid: [lattice.NDim]int{1, 1, 1, 4}},
		{
			name: "4-rank-kill", grid: [lattice.NDim]int{1, 1, 1, 4},
			mutate: func(o *Options) {
				// xid 2 opens the first normal apply; 3 is its second stencil.
				o.Spawn = inprocSpawn(WorkerOptions{KillAtApply: func(rank int, xid uint64) bool {
					return rank == 1 && xid == 3
				}})
			},
			check: func(t *testing.T, reg *obs.Registry) {
				if reg.Counter("wire.recoveries").Value() < 1 {
					t.Fatal("no recovery recorded; the kill never fired")
				}
			},
		},
		{
			name: "2-rank-corrupt", grid: [lattice.NDim]int{1, 1, 1, 2},
			mutate: func(o *Options) {
				o.Chaos = fault.Plan{Seed: 7, NetDrop: 0.01, NetCorrupt: 0.02, MaxInjections: 300}
			},
			check: func(t *testing.T, reg *obs.Registry) {
				if reg.Counter("wire.corrupt_frames").Value() == 0 {
					t.Fatal("no corrupt frame detected; the plan never fired")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, u, reg := testSession(t, dims, tc.grid, tc.mutate)
			b := randomSource(s.Size(), 23)
			x, st, err := solver.CGNE(context.Background(), s, b, solver.Params{Tol: 1e-8})
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			xRef, stRef, err := solver.CGNE(context.Background(), dirac.NewWilson(u, 0.1), b, solver.Params{Tol: 1e-8})
			if err != nil {
				t.Fatal(err)
			}
			if st.Iterations != stRef.Iterations {
				t.Fatalf("iterations %d vs %d single-process", st.Iterations, stRef.Iterations)
			}
			if d := bitDiff(x, xRef); d != 0 {
				t.Fatalf("%d/%d components differ bitwise with read buffers scribbled", d, len(x))
			}
			if tc.check != nil {
				tc.check(t, reg)
			}
		})
	}
}

// TestFrameReaderPoisonScribbles checks the hook the test above rests on
// really destroys a frame once the next is asked for.
func TestFrameReaderPoisonScribbles(t *testing.T) {
	f := testFrame()
	stream := append(EncodeFrame(f), EncodeFrame(f)...)
	fr := NewFrameReader(bytes.NewReader(stream), 1<<20)
	fr.poison = true
	first, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(first.Payload) != string(f.Payload) {
		t.Fatal("first frame arrived damaged")
	}
	second, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(second.Payload) != string(f.Payload) {
		t.Fatal("second frame arrived damaged")
	}
	for i, b := range first.Payload {
		if b != 0xa5 {
			t.Fatalf("byte %d of the consumed frame survived the next read", i)
		}
	}
}

// TestAwaitDeathsRepostsNotice pins the death queue's contract from the
// waiting side: awaitDeaths wants only the wake-up, so it skips a notice
// for a generation that has since been replaced and puts a live one back
// for the rewiring wait that follows.
func TestAwaitDeathsRepostsNotice(t *testing.T) {
	timing := fastTiming()
	timing.HeartbeatEvery = time.Minute // a wait that times out hangs the test
	s := &Session{
		timing:  timing,
		deadCh:  make(chan deathNotice, 4),
		workers: []*remoteRank{{alive: true, gen: 1}, {alive: true, gen: 3}},
	}
	s.deadCh <- deathNotice{rank: 1, gen: 2} // rank 1 has been reassigned since
	live := deathNotice{rank: 0, gen: 1}
	s.deadCh <- live
	s.awaitDeaths(context.Background())
	select {
	case d := <-s.deadCh:
		if d != live {
			t.Fatalf("queue holds %+v, want the live notice %+v", d, live)
		}
	default:
		t.Fatal("awaitDeaths swallowed the live notice")
	}
	if len(s.deadCh) != 0 {
		t.Fatal("the stale notice was put back too")
	}
}

// TestStaleDeathNoticeDoesNotFailApply leaves a notice for a generation
// long gone in the queue - what a death detected between applications
// leaves behind once recovery has replaced the rank - and checks the next
// application neither fails on it nor burns a retry.
func TestStaleDeathNoticeDoesNotFailApply(t *testing.T) {
	dims := [lattice.NDim]int{4, 4, 4, 4}
	s, u, reg := testSession(t, dims, [lattice.NDim]int{1, 1, 1, 2}, nil)
	if got, want := cap(s.results), (maxApplyRetries+1)*s.n; got != want {
		t.Fatalf("results queue holds %d, want the retry budget %d", got, want)
	}
	s.deadCh <- deathNotice{rank: 1, gen: 0}
	src := randomSource(s.Size(), 5)
	got := make([]complex128, s.Size())
	want := make([]complex128, s.Size())
	s.Apply(got, src)
	dirac.NewWilson(u, 0.1).Apply(want, src)
	if d := bitDiff(got, want); d != 0 {
		t.Fatalf("%d components differ bitwise", d)
	}
	if n := reg.Counter("wire.retries").Value(); n != 0 {
		t.Fatalf("a stale death notice cost %d retries", n)
	}
}

// TestPostResultCountsDrops checks a result that finds the queue full is
// dropped out loud: counted, with the queue's earlier entry intact.
func TestPostResultCountsDrops(t *testing.T) {
	reg := obs.NewRegistry()
	s := &Session{results: make(chan resultMsg, 1), met: newSessionMetrics(reg, 1)}
	s.postResult(resultMsg{xid: 1})
	s.postResult(resultMsg{xid: 2})
	if n := reg.Counter("wire.results_dropped").Value(); n != 1 {
		t.Fatalf("wire.results_dropped = %d, want 1", n)
	}
	if res := <-s.results; res.xid != 1 {
		t.Fatalf("queue holds xid %d, want 1", res.xid)
	}
}
