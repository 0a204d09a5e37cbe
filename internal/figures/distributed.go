package figures

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/obs"
	"femtoverse/internal/solver"
	"femtoverse/internal/wire"
)

func init() {
	register("distributed", genDistributed)
}

// Distributed measures the real multi-process halo exchange: one CGNE
// solve through wire.Session at 1..N ranks under every halo policy, each
// checked bit-for-bit against the single-process solve. The interesting
// numbers at this scale are the wire costs - frames, bytes, per-rank
// traffic - not the wall clock (localhost TCP on a femtoscale lattice is
// pure overhead; the policy sweep shows what coarse batching saves).
type Distributed struct {
	BaselineSeconds float64
	BaselineIters   int
	Rows            []DistributedRow
}

// DistributedRow is one (ranks, policy) measurement.
type DistributedRow struct {
	Ranks         int
	Policy        string
	Seconds       float64
	Iters         int
	HaloFrames    int64
	HaloWireBytes int64
	BitDiffs      int
	// Requests is the coordinator round trips of the solve; SplitUS is
	// where one of them went on average, microseconds, keyed by the
	// session's wire.time.* counter it was read from (splitKeys). The
	// coord_* phases partition the request on the coordinator; the
	// worker_* steps are the mean over ranks of what happened inside its
	// result wait.
	Requests int64
	SplitUS  map[string]float64
}

// splitKeys are the wire.time.* counters of a row's split, in pipeline
// order; each is wire.time.<key>_ns in the session's registry.
var splitKeys = []string{
	"coord_scatter_send", "coord_result_wait", "coord_gather",
	"worker_decode", "worker_pack_send", "worker_interior", "worker_ghost_wait", "worker_boundary", "worker_encode",
}

// splitLabels head the split's columns, key for key; the first
// coordPhases of them are the coordinator's.
var splitLabels = []string{
	"scatter+send", "result_wait", "gather",
	"decode", "pack+send", "interior", "ghost_wait", "boundary", "encode",
}

const coordPhases = 3

// Name implements Result.
func (Distributed) Name() string { return "distributed" }

// Title implements Result.
func (Distributed) Title() string {
	return "Distributed halo exchange over TCP: rank and policy sweep vs single process"
}

// Render implements Result.
func (d Distributed) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "baseline: 1 rank (in-process)  %8.3f s  %d iters\n", d.BaselineSeconds, d.BaselineIters)
	fmt.Fprintf(&b, "# ranks  policy         seconds  iters  halo_frames  halo_wire_bytes  bit_diffs\n")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%7d  %-13s %8.3f  %5d  %11d  %15d  %9d\n",
			r.Ranks, r.Policy, r.Seconds, r.Iters, r.HaloFrames, r.HaloWireBytes, r.BitDiffs)
	}
	fmt.Fprintf(&b, "# every row bit-for-bit the single-process solve (bit_diffs must be 0)\n")
	fmt.Fprintf(&b, "# where one coordinator request went (us, mean; worker steps averaged over ranks)\n")
	fmt.Fprintf(&b, "# ranks  policy         requests")
	for i, label := range splitLabels {
		if i == coordPhases {
			fmt.Fprintf(&b, " |")
		}
		fmt.Fprintf(&b, "  %12s", label)
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%7d  %-13s %9d", r.Ranks, r.Policy, r.Requests)
		for i, k := range splitKeys {
			if i == coordPhases {
				fmt.Fprintf(&b, " |")
			}
			fmt.Fprintf(&b, "  %12.1f", r.SplitUS[k])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// Data implements DataResult.
func (d Distributed) Data() map[string]interface{} {
	out := map[string]interface{}{
		"baseline_seconds": d.BaselineSeconds,
		"baseline_iters":   d.BaselineIters,
	}
	for _, r := range d.Rows {
		k := fmt.Sprintf("ranks%d_%s", r.Ranks, strings.ReplaceAll(r.Policy, "-", "_"))
		out[k+"_seconds"] = r.Seconds
		out[k+"_halo_frames"] = r.HaloFrames
		out[k+"_halo_wire_bytes"] = r.HaloWireBytes
		out[k+"_bit_diffs"] = r.BitDiffs
		out[k+"_requests"] = r.Requests
		for _, sk := range splitKeys {
			out[k+"_"+sk+"_us"] = r.SplitUS[sk]
		}
	}
	return out
}

func genDistributed(quick bool) (Result, error) {
	dims := [lattice.NDim]int{4, 4, 4, 8}
	rankGrids := [][lattice.NDim]int{{1, 1, 1, 2}, {1, 1, 1, 4}}
	if quick {
		dims = [lattice.NDim]int{4, 4, 4, 4}
		rankGrids = rankGrids[:1]
	}
	g, err := lattice.New(dims)
	if err != nil {
		return nil, err
	}
	u := gauge.NewWeak(g, 11, 0.3)
	const mass, tol = 0.1, 1e-8
	b := make([]complex128, g.Vol*12)
	b[0] = 1

	w := dirac.NewWilson(u, mass)
	t0 := time.Now()
	xRef, stRef, err := solver.CGNE(context.Background(), w, b, solver.Params{Tol: tol})
	if err != nil {
		return nil, fmt.Errorf("figures: baseline solve: %w", err)
	}
	out := Distributed{BaselineSeconds: time.Since(t0).Seconds(), BaselineIters: stRef.Iterations}

	ckptDir, err := os.MkdirTemp("", "femtoverse-distributed")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)

	policies := []struct {
		name           string
		coarse, staged bool
	}{
		{"eager-fine", false, false},
		{"eager-coarse", true, false},
		{"staged-fine", false, true},
		{"staged-coarse", true, true},
	}
	for gi, grid := range rankGrids {
		ranks := grid[0] * grid[1] * grid[2] * grid[3]
		for pi, pol := range policies {
			reg := obs.NewRegistry()
			s, err := wire.NewSession(u, wire.Options{
				Grid: grid, Mass: mass,
				Coarse: pol.coarse, Staged: pol.staged,
				CheckpointPath: filepath.Join(ckptDir, fmt.Sprintf("subs-%d-%d.fhio", gi, pi)),
				Metrics:        reg,
				Spawn:          goroutineSpawn,
			})
			if err != nil {
				return nil, fmt.Errorf("figures: %d-rank %s session: %w", ranks, pol.name, err)
			}
			t0 := time.Now()
			x, st, err := solver.CGNE(context.Background(), s, b, solver.Params{Tol: tol})
			secs := time.Since(t0).Seconds()
			s.Close()
			if err != nil {
				return nil, fmt.Errorf("figures: %d-rank %s solve: %w", ranks, pol.name, err)
			}
			diffs := 0
			for i := range x {
				if math.Float64bits(real(x[i])) != math.Float64bits(real(xRef[i])) ||
					math.Float64bits(imag(x[i])) != math.Float64bits(imag(xRef[i])) {
					diffs++
				}
			}
			if diffs != 0 {
				return nil, fmt.Errorf("figures: %d-rank %s solve diverges from single process in %d components", ranks, pol.name, diffs)
			}
			row := DistributedRow{
				Ranks: ranks, Policy: pol.name,
				Seconds: secs, Iters: st.Iterations,
				HaloFrames:    reg.Counter("wire.halo_frames").Value(),
				HaloWireBytes: reg.Counter("wire.halo_wire_bytes").Value(),
				BitDiffs:      diffs,
				Requests:      reg.Counter("wire.requests").Value(),
				SplitUS:       map[string]float64{},
			}
			for _, sk := range splitKeys {
				per := float64(reg.Counter("wire.time."+sk+"_ns").Value()) / 1e3 / float64(row.Requests)
				if strings.HasPrefix(sk, "worker_") {
					per /= float64(ranks)
				}
				row.SplitUS[sk] = per
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// goroutineSpawn hosts each worker as a goroutine running the same Serve
// loop the garank binary runs. A worker's exit error is meaningful only
// mid-solve, where it surfaces as a declared death and recovery on the
// coordinator; at session close it is the normal teardown, so the spawn
// path deliberately lets exits pass silently.
func goroutineSpawn(addr string) error {
	go func() {
		err := wire.Serve(addr, wire.WorkerOptions{})
		workerExit(err)
	}()
	return nil
}

// workerExit receives every goroutine worker's exit status. Teardown
// errors are expected (the coordinator hangs up first); anything else is
// already handled by the coordinator's death-and-recovery machinery, so
// there is nothing left to report here.
func workerExit(error) {}
