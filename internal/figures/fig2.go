package figures

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"femtoverse/internal/core"
	"femtoverse/internal/obs"
	"femtoverse/internal/workflow"
)

func init() {
	register("fig2", genFig2)
	register("amortize", genAmortize)
}

// Fig2 reports the application workflow budget: the modeled
// production-scale split (the paper's 96.5 / 3 / 0.5) plus, optionally, a
// real laptop-scale execution of the identical pipeline.
type Fig2 struct {
	Model *workflow.ModelResult
	Real  *Fig2Real
}

// Fig2Real is the measured budget of one journaled core.Run campaign.
// Contractions are the summed "contract" spans, propagators the rest of
// the solve workers' busy time, and I/O the contract workers' busy time,
// which is the durable journal appends.
type Fig2Real struct {
	Budget       workflow.Budget
	Solves       int
	Iterations   int64
	JournalBytes int64
}

// Name implements Result.
func (Fig2) Name() string { return "fig2" }

// Title implements Result.
func (Fig2) Title() string {
	return "Application workflow budget: propagators / contractions / I/O"
}

// Render implements Result.
func (f Fig2) Render() string {
	var b strings.Builder
	p, c, io := f.Model.Budget.Fractions()
	fmt.Fprintf(&b, "# production-scale model (Sierra, 48^3x64x20, 16-GPU jobs)\n")
	fmt.Fprintf(&b, "propagators   %6.2f %%   (paper: 96.5%%)\n", p)
	fmt.Fprintf(&b, "contractions  %6.2f %%   (paper: 3%%)\n", c)
	fmt.Fprintf(&b, "i/o           %6.2f %%   (paper: 0.5%%)\n", io)
	fmt.Fprintf(&b, "one 12-component propagator: %.0f s on a %.1f TFLOPS job\n",
		12*f.Model.SolveSeconds, f.Model.JobTFlops)
	if f.Real != nil {
		rp, rc, rio := f.Real.Budget.Fractions()
		fmt.Fprintf(&b, "# real laptop-scale pipeline (core.Run: actual solves, contractions, journal)\n")
		fmt.Fprintf(&b, "propagators   %6.2f %%\ncontractions  %6.2f %%\ni/o           %6.2f %%\n", rp, rc, rio)
		fmt.Fprintf(&b, "solves=%d iterations=%d journal=%d bytes\n",
			f.Real.Solves, f.Real.Iterations, f.Real.JournalBytes)
	}
	return b.String()
}

func genFig2(quick bool) (Result, error) {
	model, err := workflow.Model(workflow.DefaultModelConfig())
	if err != nil {
		return nil, err
	}
	out := Fig2{Model: model}
	if !quick {
		if out.Real, err = runFig2Real(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runFig2Real runs core.DefaultRealConfig through the product's run path
// on one solve worker, journaling every configuration durably, and
// splits the measured time into the three Fig. 2 stages.
func runFig2Real() (*Fig2Real, error) {
	dir, err := os.MkdirTemp("", "fig2-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := core.DefaultRealConfig()
	path := filepath.Join(dir, "campaign.fwal")
	j, err := core.CreateJournal(path, cfg, 1)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	reg, tr := obs.NewRegistry(), obs.NewTracer(nil)
	res, rep, err := core.Run(context.Background(), cfg, core.RunOptions{
		Workers: 1, Journal: j, Obs: core.ObsConfig{Metrics: reg, Trace: tr}})
	if err != nil {
		return nil, err
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	busy := tr.BusySeconds("contract")
	pids := make([]int, 0, len(busy))
	for pid := range busy {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var contractS float64
	for _, pid := range pids {
		contractS += busy[pid]
	}
	iters, _ := reg.Snapshot().CounterValue("core.solver_iterations")
	return &Fig2Real{
		Budget: workflow.Budget{
			PropagatorSeconds:  rep.SolveBusy.Seconds() - contractS,
			ContractionSeconds: contractS,
			IOSeconds:          rep.ContractBusy.Seconds(),
		},
		Solves:       res.SolvesPerConfig * cfg.NConfigs,
		Iterations:   iters,
		JournalBytes: st.Size(),
	}, nil
}

// Amortize reports the co-scheduling experiment: the whole-application
// budget with and without mpi_jm's CPU/GPU overlay.
type Amortize struct {
	Before, After workflow.Budget
	SustainedPct  float64
}

// Name implements Result.
func (Amortize) Name() string { return "amortize" }

// Title implements Result.
func (Amortize) Title() string {
	return "CPU/GPU co-scheduling: contraction cost amortized to zero"
}

// Render implements Result.
func (a Amortize) Render() string {
	var b strings.Builder
	p0, c0, i0 := a.Before.Fractions()
	p1, c1, i1 := a.After.Fractions()
	fmt.Fprintf(&b, "serial     : prop %.2f%%  contract %.2f%%  io %.2f%%\n", p0, c0, i0)
	fmt.Fprintf(&b, "co-scheduled: prop %.2f%%  contract %.2f%%  io %.2f%%\n", p1, c1, i1)
	fmt.Fprintf(&b, "wall-clock saved: %.2f%%\n", 100*(a.Before.Total()-a.After.Total())/a.Before.Total())
	fmt.Fprintf(&b, "whole-application sustained: %.1f%% of peak\n", a.SustainedPct)
	return b.String()
}

func genAmortize(bool) (Result, error) {
	model, err := workflow.Model(workflow.DefaultModelConfig())
	if err != nil {
		return nil, err
	}
	return Amortize{
		Before:       model.Budget,
		After:        model.Budget.Amortized(),
		SustainedPct: model.AppSustainedPct,
	}, nil
}
