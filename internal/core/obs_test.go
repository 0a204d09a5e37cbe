package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"femtoverse/internal/cache"
	"femtoverse/internal/linalg"
	"femtoverse/internal/obs"
	jobrt "femtoverse/internal/runtime"
)

// TestCampaignObservability runs a seeded two-configuration campaign with
// the full observability stack attached and cross-checks the three
// accountings of the same run against each other: the trace's per-lane
// span durations, the runtime report's busy integrals, and the metrics
// registry's counters. It also checks the solver spans actually nested
// under the worker lanes - the end-to-end wiring from campaign driver
// through job runtime into the CG inner loop - and that every solved
// configuration, and no cached one, opens one "contract" span.
func TestCampaignObservability(t *testing.T) {
	cfg := DefaultRealConfig()
	cfg.NConfigs = 2
	camp := NewCampaign(cfg)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(nil)
	store, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}

	done, rep, err := camp.Run(context.Background(), cfg.NConfigs,
		RunOptions{Workers: 2, Obs: ObsConfig{Metrics: reg, Trace: tr}, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if done != cfg.NConfigs {
		t.Fatalf("completed %d of %d configurations", done, cfg.NConfigs)
	}

	// Trace vs report: attempt spans on each class lane must integrate to
	// the report's busy worker-seconds (all tasks here are 1-slot).
	busy := tr.BusySeconds("attempt")
	for c, want := range map[jobrt.Class]float64{
		jobrt.Solve:    rep.SolveBusy.Seconds(),
		jobrt.Contract: rep.ContractBusy.Seconds(),
	} {
		got := busy[int(c)+1]
		if math.Abs(got-want) > 0.10*want+1e-3 {
			t.Fatalf("class %v: trace busy %.4fs, report busy %.4fs", c, got, want)
		}
	}

	// The timeline is the third accounting of the same window.
	if got, want := rep.Timeline.BusySeconds(jobrt.Solve), rep.SolveBusy.Seconds(); math.Abs(got-want) > 0.10*want+1e-3 {
		t.Fatalf("timeline solve busy %.4fs, report %.4fs", got, want)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"campaign"`, `"cgne-mixed"`, `"cg-block"`, "solve cfg", "contract cfg"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s", want)
		}
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	solverOnWorkerLane, contractSpans := 0, 0
	for _, e := range parsed.TraceEvents {
		if e.Cat == "solver" && e.PID == 1 {
			solverOnWorkerLane++
		}
		if e.Cat == "contract" && e.Ph == "X" {
			contractSpans++
		}
	}
	if solverOnWorkerLane == 0 {
		t.Fatal("no solver spans landed on the solve worker lane")
	}
	if contractSpans != cfg.NConfigs {
		t.Fatalf("%d contract spans for %d solved configurations", contractSpans, cfg.NConfigs)
	}
	warmTr := obs.NewTracer(nil)
	if _, _, err := NewCampaign(cfg).Run(context.Background(), cfg.NConfigs,
		RunOptions{Workers: 2, Obs: ObsConfig{Trace: warmTr}, Cache: store}); err != nil {
		t.Fatal(err)
	}
	if busy := warmTr.BusySeconds("contract"); len(busy) != 0 {
		t.Fatalf("warm run served from the cache opened contract spans: %v", busy)
	}

	// Metrics: the campaign counters must agree with the report.
	s := reg.Snapshot()
	counters := map[string]int64{}
	for _, c := range s.Counters {
		counters[c.Name] = c.Value
	}
	if counters["core.configs_solved"] != int64(cfg.NConfigs) {
		t.Fatalf("configs_solved = %d", counters["core.configs_solved"])
	}
	if counters["core.solver_iterations"] <= 0 || counters["core.solver_flops"] <= 0 {
		t.Fatalf("solver work counters empty:\n%s", s.Text())
	}
	if counters["runtime.attempts"] < int64(2*cfg.NConfigs) {
		t.Fatalf("runtime.attempts = %d, want >= %d", counters["runtime.attempts"], 2*cfg.NConfigs)
	}
}

// TestTracedCampaignSpansNestOnEveryLane runs a traced campaign whose
// configurations solve on two propagator lanes - the pool worker's and a
// helper's - and holds every (pid, tid) of the trace to what obs.Scope.Lane
// promises and BusySeconds relies on: its complete spans nest, none starting
// inside another and ending after it (1 µs of rounding allowed), and its
// solver drives never overlap at all. A pair of systems is one
// "cgne-mixed" span, so the drives' systems must add up to every solve.
func TestTracedCampaignSpansNestOnEveryLane(t *testing.T) {
	old := linalg.DefaultWorkers
	linalg.DefaultWorkers = 2
	t.Cleanup(func() { linalg.DefaultWorkers = old })
	cfg := DefaultRealConfig()
	cfg.NConfigs = 2
	tr := obs.NewTracer(nil)
	if _, _, err := NewCampaign(cfg).Run(context.Background(), cfg.NConfigs,
		RunOptions{Workers: 1, Obs: ObsConfig{Trace: tr}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name     string
			Ph       string
			PID, TID int
			TS, Dur  int64
			Args     struct{ Systems int }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	type span struct {
		name   string
		t0, t1 int64
	}
	lanes := map[[2]int][]span{}
	systems := 0
	for _, e := range parsed.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		lanes[[2]int{e.PID, e.TID}] = append(lanes[[2]int{e.PID, e.TID}], span{e.Name, e.TS, e.TS + e.Dur})
		if e.Name == "cgne-mixed" {
			systems += max(e.Args.Systems, 1)
		}
	}
	solveLanes := 0
	for lane, spans := range lanes {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].t0 != spans[j].t0 {
				return spans[i].t0 < spans[j].t0
			}
			return spans[i].t1 > spans[j].t1
		})
		var open []span
		var lastDrive *span
		for i := range spans {
			s := spans[i]
			for len(open) > 0 && open[len(open)-1].t1 <= s.t0 {
				open = open[:len(open)-1]
			}
			if n := len(open); n > 0 && s.t1 > open[n-1].t1+1 {
				t.Fatalf("pid %d tid %d: %s [%d, %d] starts inside %s [%d, %d] and ends after it",
					lane[0], lane[1], s.name, s.t0, s.t1, open[n-1].name, open[n-1].t0, open[n-1].t1)
			}
			open = append(open, s)
			if s.name == "cgne-mixed" {
				if lastDrive != nil && s.t0 < lastDrive.t1 {
					t.Fatalf("pid %d tid %d: solver drive %v overlaps %v", lane[0], lane[1], s, *lastDrive)
				}
				lastDrive = &spans[i]
			}
		}
		if lastDrive != nil {
			solveLanes++
		}
	}
	// A helper the scheduler starts late may find nothing left to take.
	if want := cfg.NConfigs * 2 * 12; systems != want || solveLanes < 1 || solveLanes > 2 {
		t.Fatalf("solver drives of %d systems on %d lanes, want %d systems on at most 2", systems, solveLanes, want)
	}
}

// TestCampaignObservabilityDoesNotPerturbPhysics pins the zero-cost
// contract: the same seeded campaign with and without the observability
// stack produces bit-for-bit identical correlators.
func TestCampaignObservabilityDoesNotPerturbPhysics(t *testing.T) {
	cfg := DefaultRealConfig()
	cfg.NConfigs = 2

	plain := NewCampaign(cfg)
	if _, _, err := plain.Run(context.Background(), cfg.NConfigs, RunOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	instr := NewCampaign(cfg)
	sinks := ObsConfig{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(nil)}
	if _, _, err := instr.Run(context.Background(), cfg.NConfigs, RunOptions{Workers: 2, Obs: sinks}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.NConfigs; i++ {
		for j := range plain.C2[i] {
			if plain.C2[i][j] != instr.C2[i][j] || plain.CFH[i][j] != instr.CFH[i][j] {
				t.Fatalf("config %d slot %d: instrumented run changed the physics", i, j)
			}
		}
	}
}
