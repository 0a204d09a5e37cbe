package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// metricDef names one reported number. The two tables below are the
// single source of the benchmark's vocabulary; the smoke test holds
// BENCHMARK.json to them exactly.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Exact marks a count that is a pure function of (workload, seed):
	// -compare holds it to equality instead of a ratio.
	Exact bool
}

// endToEnd are the metrics of an untraced run. fail_frac is printed with
// them but is not a BENCHMARK.json metric: it is expected to be 0, the
// driver's contract wants metrics that are never 0, and the same fact is
// carried by the result line's "failed"/"attempted" pair.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "op_p50_s", Unit: "s", Better: "lower"},
	{Name: "op_p85_s", Unit: "s", Better: "lower"},
	{Name: "alloc_mb", Unit: "MiB", Better: "lower"},
}

// perLayer are the metrics of a traced run, grouped by layer = package.
var perLayer = []metricDef{
	{Name: "host.nproc", Unit: "count", Better: "higher"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "host.llc_mb", Unit: "MiB", Better: "higher"},
	{Name: "host.stream_array_mb", Unit: "MiB", Better: "higher"},
	{Name: "host.stream_triad_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "host.peak_gflops_f64", Unit: "GFLOPS", Better: "higher"},
	{Name: "host.peak_gflops_f32", Unit: "GFLOPS", Better: "higher"},

	{Name: "gauge.ensemble_s", Unit: "s", Better: "lower"},
	{Name: "gauge.sweeps", Unit: "count", Better: "lower", Exact: true},

	{Name: "dirac.apply_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "dirac.apply_s", Unit: "s", Better: "lower"},
	{Name: "dirac.apply_share", Unit: "ratio", Better: "lower"},
	{Name: "dirac.schur64_apply_us", Unit: "us", Better: "lower"},
	{Name: "dirac.schur64_gflops", Unit: "GFLOPS", Better: "higher"},
	{Name: "dirac.schur64_gbs_computed", Unit: "GB/s", Better: "higher"},
	{Name: "dirac.schur64_flops_per_byte", Unit: "flop/B", Better: "higher"},
	{Name: "dirac.schur64_roofline_frac", Unit: "ratio", Better: "higher"},
	{Name: "dirac.schur64_allocs_per_apply", Unit: "count", Better: "lower"},
	{Name: "dirac.schur32_apply_us", Unit: "us", Better: "lower"},
	{Name: "dirac.schur32_gflops", Unit: "GFLOPS", Better: "higher"},
	{Name: "dirac.schur32_gbs_computed", Unit: "GB/s", Better: "higher"},
	{Name: "dirac.schur32_flops_per_byte", Unit: "flop/B", Better: "higher"},
	{Name: "dirac.schur32_roofline_frac", Unit: "ratio", Better: "higher"},
	{Name: "dirac.schur32_allocs_per_apply", Unit: "count", Better: "lower"},
	{Name: "dirac.wilson_apply_us", Unit: "us", Better: "lower"},
	{Name: "dirac.wilson_gflops", Unit: "GFLOPS", Better: "higher"},
	{Name: "dirac.wilson_gbs_computed", Unit: "GB/s", Better: "higher"},
	{Name: "dirac.wilson_flops_per_byte", Unit: "flop/B", Better: "higher"},
	{Name: "dirac.wilson_roofline_frac", Unit: "ratio", Better: "higher"},
	{Name: "dirac.wilson_allocs_per_apply", Unit: "count", Better: "lower"},

	{Name: "linalg.axpy_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "linalg.dot_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "linalg.normsq_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "linalg.axpy_c64_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "linalg.dot_c64_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "linalg.stream_frac", Unit: "ratio", Better: "higher"},
	{Name: "linalg.half_codec_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "linalg.allocs_per_call", Unit: "count", Better: "lower"},

	{Name: "solver.solves", Unit: "count", Better: "lower", Exact: true},
	{Name: "solver.iterations", Unit: "count", Better: "lower", Exact: true},
	{Name: "solver.reliable_updates", Unit: "count", Better: "lower", Exact: true},
	{Name: "solver.restarts", Unit: "count", Better: "lower", Exact: true},
	{Name: "solver.busy_s", Unit: "s", Better: "lower"},
	{Name: "solver.self_s", Unit: "s", Better: "lower"},
	{Name: "solver.self_share", Unit: "ratio", Better: "lower"},
	{Name: "solver.iter_us", Unit: "us", Better: "lower"},
	{Name: "solver.allocs_per_solve", Unit: "count", Better: "lower"},
	{Name: "solver.alloc_kb_per_solve", Unit: "KiB", Better: "lower"},
	{Name: "solver.sustained_gflops", Unit: "GFLOPS", Better: "higher"},
	{Name: "solver.true_residual_max", Unit: "ratio", Better: "lower"},

	{Name: "prop.prepare_reconstruct_s", Unit: "s", Better: "lower"},
	{Name: "prop.spinmul_s", Unit: "s", Better: "lower"},
	{Name: "prop.share", Unit: "ratio", Better: "lower"},

	{Name: "contract.proton2pt_ms", Unit: "ms", Better: "lower"},
	{Name: "contract.fh3pt_ms", Unit: "ms", Better: "lower"},
	{Name: "contract.busy_s", Unit: "s", Better: "lower"},
	{Name: "contract.share", Unit: "ratio", Better: "lower"},

	{Name: "core.analysis_ms", Unit: "ms", Better: "lower"},
	{Name: "core.journal_append_us", Unit: "us", Better: "lower"},
	{Name: "core.journal_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "core.journal_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "core.residual_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.tracing_overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "cache.hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "cache.misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "cache.computes", Unit: "count", Better: "lower", Exact: true},
	{Name: "cache.coalesced", Unit: "count", Better: "higher", Exact: true},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.get_hit_us", Unit: "us", Better: "lower"},
	{Name: "cache.disk_put_ms", Unit: "ms", Better: "lower"},

	{Name: "hio.checkpoint_save_ms", Unit: "ms", Better: "lower"},
	{Name: "hio.checkpoint_bytes", Unit: "B", Better: "lower", Exact: true},

	{Name: "runtime.tasks", Unit: "count", Better: "lower", Exact: true},
	{Name: "runtime.attempts", Unit: "count", Better: "lower", Exact: true},
	{Name: "runtime.retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "runtime.backfills", Unit: "count", Better: "higher"},
	{Name: "runtime.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "runtime.solve_util", Unit: "ratio", Better: "higher"},
	{Name: "runtime.contract_util", Unit: "ratio", Better: "higher"},
	{Name: "runtime.dispatch_overhead_us", Unit: "us", Better: "lower"},

	{Name: "serve.submit_http_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.status_http_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_turnaround_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.warm_turnaround_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.campaigns_completed", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.configs_recorded", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.refused_quota", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.dispatch_share_err", Unit: "ratio", Better: "lower"},

	{Name: "domain.apply_us", Unit: "us", Better: "lower"},
	{Name: "domain.overhead_x", Unit: "x", Better: "lower"},

	{Name: "wire.session_start_s", Unit: "s", Better: "lower"},
	{Name: "wire.apply_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "wire.apply_us", Unit: "us", Better: "lower"},
	{Name: "wire.halo_frames", Unit: "count", Better: "lower", Exact: true},
	{Name: "wire.halo_wire_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "wire.bytes_per_apply", Unit: "B", Better: "lower", Exact: true},
	{Name: "wire.effective_halo_mbs", Unit: "MB/s", Better: "higher"},
	{Name: "wire.recoveries", Unit: "count", Better: "lower", Exact: true},
	{Name: "wire.inproc_solve_p50_s", Unit: "s", Better: "lower"},
	{Name: "wire.slowdown_x", Unit: "x", Better: "lower"},
}

// metricValue is one measured number with its unit, the shape the
// driver's result line wants.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet accumulates values by name. Every name must come from one of
// the two tables; export fills the names a workload bypasses with 0 so a
// traced run always reports every per-layer metric.
type metricSet map[string]float64

func (m metricSet) export(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// unknown lists the names in m that no table defines: a typo in a
// workload would otherwise vanish silently in export.
func (m metricSet) unknown(defs []metricDef) []string {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
	}
	var bad []string
	for name := range m {
		if !known[name] {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// benchSpec is the BENCHMARK.json contract file.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the current directory or its parent:
// the benchmark runs from the repository root under run.sh and from
// benchmark/ under go run and go test.
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, fmt.Errorf("load BENCHMARK.json: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// bound returns the regression bound of an end-to-end metric.
func (s *benchSpec) bound(name string) (float64, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound, true
		}
	}
	return 0, false
}
