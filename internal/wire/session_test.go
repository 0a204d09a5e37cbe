package wire

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"femtoverse/internal/dirac"
	"femtoverse/internal/domain"
	"femtoverse/internal/fault"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/obs"
	"femtoverse/internal/solver"
)

// serveErrs collects worker exit statuses from in-process Serve
// goroutines; tests that care drain it, the rest let it ring-buffer.
var serveErrs = make(chan error, 1024)

// inprocSpawn hosts each "process" as a goroutine running the same Serve
// loop the garank binary runs, so the full protocol - handshake, peer
// dials, heartbeats, recovery - is exercised without forking.
func inprocSpawn(opts WorkerOptions) func(addr string) error {
	return func(addr string) error {
		go func() {
			err := Serve(addr, opts)
			select {
			case serveErrs <- err:
			default:
			}
		}()
		return nil
	}
}

// fastTiming compresses every deadline so failure paths resolve in
// milliseconds; the heartbeat window stays wide enough that race-detector
// scheduling jitter cannot fake a death.
func fastTiming() Timing {
	return Timing{
		DialTimeout:    2 * time.Second,
		IOTimeout:      2 * time.Second,
		ApplyTimeout:   20 * time.Second,
		GhostTimeout:   time.Second,
		HeartbeatEvery: 20 * time.Millisecond,
		HeartbeatMiss:  10,
		RetryBase:      200 * time.Microsecond,
		RetryMax:       2 * time.Millisecond,
		MaxDelay:       time.Millisecond,
	}
}

// testSession builds a session over goroutine-hosted workers on a weak
// 4^3 x Lt field. mutate (optional) adjusts the options before dialing.
func testSession(t *testing.T, dims [lattice.NDim]int, grid [lattice.NDim]int, mutate func(*Options)) (*Session, *gauge.Field, *obs.Registry) {
	t.Helper()
	g, err := lattice.New(dims)
	if err != nil {
		t.Fatal(err)
	}
	u := gauge.NewWeak(g, 11, 0.3)
	reg := obs.NewRegistry()
	opts := Options{
		Grid: grid, Mass: 0.1,
		Timing:         fastTiming(),
		CheckpointPath: filepath.Join(t.TempDir(), "subs.fhio"),
		Metrics:        reg,
		Spawn:          inprocSpawn(WorkerOptions{}),
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := NewSession(u, opts)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(s.Close)
	return s, u, reg
}

// randomSource fills a deterministic pseudo-random spinor field.
func randomSource(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

// bitDiff counts components whose float64 bit patterns differ.
func bitDiff(a, b []complex128) int {
	d := 0
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			d++
		}
	}
	return d
}

// TestSessionApplyBitwise checks one distributed operator application is
// bit-for-bit the shared-memory application under all four halo policies
// (eager/staged x fine/coarse), for Apply and ApplyDagger both.
func TestSessionApplyBitwise(t *testing.T) {
	dims := [lattice.NDim]int{4, 4, 4, 4}
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			s, u, _ := testSession(t, dims, [lattice.NDim]int{1, 1, 1, 2}, func(o *Options) {
				o.Coarse, o.Staged = tc.coarse, tc.staged
			})
			w := dirac.NewWilson(u, 0.1)
			src := randomSource(s.Size(), 5)
			got := make([]complex128, s.Size())
			want := make([]complex128, s.Size())
			s.Apply(got, src)
			w.Apply(want, src)
			if d := bitDiff(got, want); d != 0 {
				t.Fatalf("Apply: %d/%d components differ bitwise", d, len(got))
			}
			s.ApplyDagger(got, src)
			w.ApplyDagger(want, src)
			if d := bitDiff(got, want); d != 0 {
				t.Fatalf("ApplyDagger: %d/%d components differ bitwise", d, len(got))
			}
		})
	}
}

// TestSessionSolveBitwise runs the production CGNE through the session
// and demands the solution match the single-process solve bit for bit.
func TestSessionSolveBitwise(t *testing.T) {
	dims := [lattice.NDim]int{4, 4, 4, 8}
	s, u, reg := testSession(t, dims, [lattice.NDim]int{1, 1, 1, 4}, nil)
	b := make([]complex128, s.Size())
	b[0] = 1
	x, st, err := solver.CGNE(context.Background(), s, b, solver.Params{Tol: 1e-8})
	if err != nil {
		t.Fatalf("distributed solve: %v", err)
	}
	w := dirac.NewWilson(u, 0.1)
	xRef, stRef, err := solver.CGNE(context.Background(), w, b, solver.Params{Tol: 1e-8})
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	if st.Iterations != stRef.Iterations {
		t.Fatalf("iteration counts diverge: %d distributed vs %d reference", st.Iterations, stRef.Iterations)
	}
	if d := bitDiff(x, xRef); d != 0 {
		t.Fatalf("%d/%d solution components differ bitwise", d, len(x))
	}
	if reg.Counter("wire.applies").Value() == 0 {
		t.Fatal("no applies counted; metrics plumbing is dead")
	}
}

// applyCount measures how many operator applications one clean solve
// performs, which is the kill test's iteration space.
func applyCount(t *testing.T, dims [lattice.NDim]int, grid [lattice.NDim]int, tol float64) int {
	t.Helper()
	s, _, reg := testSession(t, dims, grid, nil)
	b := make([]complex128, s.Size())
	b[0] = 1
	if _, _, err := solver.CGNE(context.Background(), s, b, solver.Params{Tol: tol}); err != nil {
		t.Fatalf("counting solve: %v", err)
	}
	s.Close()
	return int(reg.Counter("wire.applies").Value())
}

// TestSessionKillAtEveryIteration is the headline robustness claim: kill
// worker rank 1 at transfer k, for every k a clean solve performs, and
// demand each surviving solve land bit-for-bit on the single-process
// answer after heartbeat/EOF detection, respawn, checkpoint restore and
// retry. In -short mode the kill points stride by a prime; the full run
// sweeps every single one.
func TestSessionKillAtEveryIteration(t *testing.T) {
	dims := [lattice.NDim]int{4, 4, 4, 4}
	grid := [lattice.NDim]int{1, 1, 1, 2}
	const tol = 1e-7
	total := applyCount(t, dims, grid, tol)
	if total < 10 {
		t.Fatalf("clean solve performed only %d applies; problem too small to be a meaningful sweep", total)
	}

	b := make([]complex128, 0)
	w := (*dirac.Wilson)(nil)
	var xRef []complex128
	{
		g, err := lattice.New(dims)
		if err != nil {
			t.Fatal(err)
		}
		u := gauge.NewWeak(g, 11, 0.3)
		w = dirac.NewWilson(u, 0.1)
		b = make([]complex128, w.Size())
		b[0] = 1
		xRef, _, err = solver.CGNE(context.Background(), w, b, solver.Params{Tol: tol})
		if err != nil {
			t.Fatal(err)
		}
	}

	stride := 1
	if testing.Short() {
		stride = 7
	}
	for k := 1; k <= total; k += stride {
		kill := uint64(k)
		s, _, reg := testSession(t, dims, grid, func(o *Options) {
			o.Spawn = inprocSpawn(WorkerOptions{
				KillAtApply: func(rank int, xid uint64) bool {
					return rank == 1 && xid == kill
				},
			})
		})
		x, _, err := solver.CGNE(context.Background(), s, b, solver.Params{Tol: tol})
		if err != nil {
			t.Fatalf("kill at xid %d: solve failed: %v", k, err)
		}
		if d := bitDiff(x, xRef); d != 0 {
			t.Fatalf("kill at xid %d: %d/%d components differ bitwise after recovery", k, d, len(x))
		}
		if reg.Counter("wire.rank_deaths").Value() < 1 {
			t.Fatalf("kill at xid %d: no rank death recorded", k)
		}
		if reg.Counter("wire.recoveries").Value() < 1 {
			t.Fatalf("kill at xid %d: no recovery recorded", k)
		}
		if reg.Counter(obs.RankMetric("wire.recoveries", 1)).Value() < 1 {
			t.Fatalf("kill at xid %d: recovery not attributed to rank 1", k)
		}
		s.Close()
	}
}

// TestSessionChaosSolveBitwise turns on drop, corruption and delay
// injection and checks the fault-tolerance machinery delivers the exact
// single-process answer anyway - with the injections actually firing.
func TestSessionChaosSolveBitwise(t *testing.T) {
	dims := [lattice.NDim]int{4, 4, 4, 8}
	s, u, reg := testSession(t, dims, [lattice.NDim]int{1, 1, 1, 4}, func(o *Options) {
		o.Chaos = fault.Plan{Seed: 7, NetDrop: 0.01, NetCorrupt: 0.01, NetDelay: 0.002, MaxInjections: 300}
	})
	b := make([]complex128, s.Size())
	b[0] = 1
	x, _, err := solver.CGNE(context.Background(), s, b, solver.Params{Tol: 1e-8})
	if err != nil {
		t.Fatalf("chaos solve: %v", err)
	}
	w := dirac.NewWilson(u, 0.1)
	xRef, _, err := solver.CGNE(context.Background(), w, b, solver.Params{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if d := bitDiff(x, xRef); d != 0 {
		t.Fatalf("%d/%d components differ bitwise under chaos", d, len(x))
	}
	resends := reg.Counter("wire.resends").Value()
	corrupts := reg.Counter("wire.corrupt_frames").Value()
	if resends == 0 {
		t.Fatal("chaos plan injected no resends; the drop path went unexercised")
	}
	if corrupts == 0 {
		t.Fatal("chaos plan injected no detected corruptions; the checksum path went unexercised")
	}
	t.Logf("chaos: %d resends, %d corrupt frames discarded, coordinator counts %v",
		resends, corrupts, s.ChaosCounts())
}

// partitionSeed picks, deterministically, a chaos seed whose epoch-1
// partition draw severs at least one coordinator link while epochs 2..12
// stay fully clean, so a session must detect the partition by heartbeat
// timeout, recover, and then converge. Searching in-test keeps the pick
// honest against any future change to the draw keying.
func partitionSeed(rate float64, n int) (int64, bool) {
	links := []int{fault.LinkKey(CoordRank, 0)}
	for r := 1; r < n; r++ {
		links = append(links, fault.LinkKey(CoordRank, r))
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			links = append(links, fault.LinkKey(a, b))
		}
	}
	for seed := int64(1); seed < 4000; seed++ {
		coordCut := false
		for r := 0; r < n; r++ {
			if fault.Uniform(seed^partitionSalt, int64(fault.LinkKey(CoordRank, r)), 1) < rate {
				coordCut = true
			}
		}
		if !coordCut {
			continue
		}
		clean := true
		for epoch := int64(2); epoch <= 12 && clean; epoch++ {
			for _, l := range links {
				if fault.Uniform(seed^partitionSalt, int64(l), epoch) < rate {
					clean = false
					break
				}
			}
		}
		if clean {
			return seed, true
		}
	}
	return 0, false
}

// TestSessionPartitionDetectedAndRecovered partitions a coordinator link
// at epoch 1: the peer-table broadcast silently vanishes, so the epoch
// can never be acknowledged. The session must detect the loss by the
// rewiring-ack timeout, retire the partitioned epoch, and converge on a
// clean one - then produce the bit-exact answer.
func TestSessionPartitionDetectedAndRecovered(t *testing.T) {
	const rate = 0.25
	seed, ok := partitionSeed(rate, 2)
	if !ok {
		t.Fatal("no usable partition seed below 4000; keying must have changed, re-derive the search")
	}
	dims := [lattice.NDim]int{4, 4, 4, 4}
	timing := fastTiming()
	// Tight rewiring deadlines: each partitioned epoch should burn
	// milliseconds, not the dial default.
	timing.DialTimeout = 500 * time.Millisecond
	timing.GhostTimeout = 250 * time.Millisecond
	s, u, reg := testSession(t, dims, [lattice.NDim]int{1, 1, 1, 2}, func(o *Options) {
		o.Timing = timing
		o.Chaos = fault.Plan{Seed: seed, NetPartition: rate}
	})
	b := make([]complex128, s.Size())
	b[0] = 1
	x, _, err := solver.CGNE(context.Background(), s, b, solver.Params{Tol: 1e-7})
	if err != nil {
		t.Fatalf("partitioned solve: %v", err)
	}
	w := dirac.NewWilson(u, 0.1)
	xRef, _, err := solver.CGNE(context.Background(), w, b, solver.Params{Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if d := bitDiff(x, xRef); d != 0 {
		t.Fatalf("%d/%d components differ bitwise after partition recovery", d, len(x))
	}
	if got := s.ChaosCounts().NetPartition; got < 1 {
		t.Fatalf("coordinator drew no partition (seed %d); the test lost its fault", seed)
	}
	// Convergence past the severed epoch 1 demands at least one extra
	// stabilization round.
	if got := reg.Counter("wire.reconnects").Value(); got < 2 {
		t.Fatalf("only %d stabilization rounds; the partitioned epoch was never detected", got)
	}
}

// TestSessionHangDetectedByHeartbeat freezes rank 1 mid-solve with its
// sockets open: no EOF ever announces the failure, so the heartbeat
// monitor is the only detector. The session must declare the rank dead
// within the beat window, respawn it from the checkpoint, and land
// bit-exactly on the single-process answer.
func TestSessionHangDetectedByHeartbeat(t *testing.T) {
	dims := [lattice.NDim]int{4, 4, 4, 4}
	s, u, reg := testSession(t, dims, [lattice.NDim]int{1, 1, 1, 2}, func(o *Options) {
		o.Spawn = inprocSpawn(WorkerOptions{
			HangAtApply: func(rank int, xid uint64) bool {
				return rank == 1 && xid == 3
			},
			HangFor: 3 * time.Second,
		})
	})
	b := make([]complex128, s.Size())
	b[0] = 1
	x, _, err := solver.CGNE(context.Background(), s, b, solver.Params{Tol: 1e-7})
	if err != nil {
		t.Fatalf("solve through hang: %v", err)
	}
	w := dirac.NewWilson(u, 0.1)
	xRef, _, err := solver.CGNE(context.Background(), w, b, solver.Params{Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if d := bitDiff(x, xRef); d != 0 {
		t.Fatalf("%d/%d components differ bitwise after hang recovery", d, len(x))
	}
	if reg.Counter("wire.rank_deaths").Value() < 1 {
		t.Fatal("hung rank was never declared dead; heartbeat detection failed")
	}
	if reg.Counter("wire.recoveries").Value() < 1 {
		t.Fatal("hung rank was never recovered")
	}
}

// TestSessionTotalPartitionFailsBounded severs every link at every epoch:
// no session can form, and the contract is a clean error within the
// stabilization budget - never an indefinite hang.
func TestSessionTotalPartitionFailsBounded(t *testing.T) {
	dims := [lattice.NDim]int{4, 4, 4, 4}
	g, err := lattice.New(dims)
	if err != nil {
		t.Fatal(err)
	}
	u := gauge.NewWeak(g, 11, 0.3)
	timing := fastTiming()
	timing.DialTimeout = 500 * time.Millisecond
	timing.IOTimeout = 500 * time.Millisecond
	timing.GhostTimeout = 200 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		s, err := NewSession(u, Options{
			Grid: [lattice.NDim]int{1, 1, 1, 2}, Mass: 0.1,
			Timing:         timing,
			CheckpointPath: filepath.Join(t.TempDir(), "subs.fhio"),
			Chaos:          fault.Plan{Seed: 1, NetPartition: 0.99},
			Spawn:          inprocSpawn(WorkerOptions{}),
		})
		if err == nil {
			s.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("session formed across a total partition")
		}
		if !strings.Contains(err.Error(), "stabilize") {
			t.Fatalf("unexpected failure shape: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("total partition hung the session past its bounded budget")
	}
}

// TestSessionApplyCtxCanceled checks a canceled context aborts the
// distributed apply promptly with ctx.Err rather than retrying through
// the fault budget.
func TestSessionApplyCtxCanceled(t *testing.T) {
	dims := [lattice.NDim]int{4, 4, 4, 4}
	s, _, _ := testSession(t, dims, [lattice.NDim]int{1, 1, 1, 2}, nil)
	src := randomSource(s.Size(), 9)
	dst := make([]complex128, s.Size())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.ApplyCtx(ctx, dst, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyCtx on canceled ctx: %v, want context.Canceled", err)
	}
}

// TestSessionHaloBytesModelledVsMeasured pins the byte parity of the halo
// plan: every rank's plan (domain.Sub.HaloPeers), priced with the frame
// constants - coarse sends one frame per peer, fine one per face - equals,
// exactly, the frames and wire bytes that rank's sockets carried. The
// grids cover the plan's three shapes: one peer with both faces (2 ranks
// on t), two peers with one face each (4 ranks on t), and two peers with
// two faces each (2 x 2 over z and t).
func TestSessionHaloBytesModelledVsMeasured(t *testing.T) {
	dims := [lattice.NDim]int{4, 4, 4, 8}
	grids := []struct {
		grid         [lattice.NDim]int
		peers, faces int // every rank's plan: peers, faces per peer
	}{
		{[lattice.NDim]int{1, 1, 1, 2}, 1, 2},
		{[lattice.NDim]int{1, 1, 1, 4}, 2, 1},
		{[lattice.NDim]int{1, 1, 2, 2}, 2, 2},
	}
	for _, gran := range []struct {
		name   string
		coarse bool
	}{{"fine", false}, {"coarse", true}} {
		t.Run(gran.name, func(t *testing.T) {
			for _, gc := range grids {
				name := fmt.Sprintf("%dx%dx%dx%d", gc.grid[0], gc.grid[1], gc.grid[2], gc.grid[3])
				t.Run(name, func(t *testing.T) {
					s, u, reg := testSession(t, dims, gc.grid, func(o *Options) {
						o.Coarse = gran.coarse
					})
					src := randomSource(s.Size(), 3)
					s.Apply(make([]complex128, s.Size()), src)

					specs, err := domain.BuildSpecs(u, gc.grid, 0.1)
					if err != nil {
						t.Fatal(err)
					}
					var allFrames, allBytes int64
					for r := range specs {
						sub, err := domain.NewSub(specs[r])
						if err != nil {
							t.Fatal(err)
						}
						plan := sub.HaloPeers()
						if len(plan) != gc.peers {
							t.Fatalf("rank %d plan %v: want %d peers", r, plan, gc.peers)
						}
						var frames, bytes int64
						for _, p := range plan {
							if len(p.Faces) != gc.faces {
								t.Fatalf("rank %d plan %v: want %d faces per peer", r, plan, gc.faces)
							}
							if gran.coarse {
								frames++
								bytes += FrameOverhead + HaloHeaderLen
							}
							for _, f := range p.Faces {
								if !gran.coarse {
									frames++
									bytes += FrameOverhead + HaloHeaderLen
								}
								bytes += int64(SectionHeaderLen + 16*sub.FaceLen(f[0]))
							}
						}
						if got := reg.Counter(obs.RankMetric("wire.halo_frames", r)).Value(); got != frames {
							t.Fatalf("rank %d halo frames: measured %d, modelled %d", r, got, frames)
						}
						if got := reg.Counter(obs.RankMetric("wire.halo_wire_bytes", r)).Value(); got != bytes {
							t.Fatalf("rank %d halo wire bytes: measured %d, modelled %d", r, got, bytes)
						}
						allFrames += frames
						allBytes += bytes
					}
					if got := reg.Counter("wire.halo_frames").Value(); got != allFrames {
						t.Fatalf("halo frames: measured %d, modelled %d", got, allFrames)
					}
					if got := reg.Counter("wire.halo_wire_bytes").Value(); got != allBytes {
						t.Fatalf("halo wire bytes: measured %d, modelled %d", got, allBytes)
					}
				})
			}
		})
	}
}

// TestSessionCheckpointRoundTrip pins the recovery substrate directly:
// specs written by the session load back identical, gauge links and all.
func TestSessionCheckpointRoundTrip(t *testing.T) {
	dims := [lattice.NDim]int{4, 4, 4, 8}
	g, err := lattice.New(dims)
	if err != nil {
		t.Fatal(err)
	}
	u := gauge.NewWeak(g, 11, 0.3)
	grid := [lattice.NDim]int{1, 1, 1, 4}
	specs, err := domain.BuildSpecs(u, grid, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.fhio")
	if err := SaveCheckpoint(path, specs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("checkpoint has %d ranks, want %d", len(got), len(specs))
	}
	for r := range specs {
		if got[r].Rank != specs[r].Rank || got[r].Mass != specs[r].Mass {
			t.Fatalf("rank %d header mismatch", r)
		}
		for mu := range specs[r].U {
			if d := bitDiff(flattenLinks(specs[r].U[mu]), flattenLinks(got[r].U[mu])); d != 0 {
				t.Fatalf("rank %d mu %d: %d gauge components differ after round trip", r, mu, d)
			}
		}
	}
}

// flattenLinks lowers an SU(3) link slice to raw complex entries.
func flattenLinks(links []linalg.SU3) []complex128 {
	out := make([]complex128, 0, len(links)*9)
	for _, m := range links {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				out = append(out, m[i][j])
			}
		}
	}
	return out
}
