package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func smokeOptions(t *testing.T) runOptions {
	return runOptions{sc: smokeScale(), seed: goldenSeed, seconds: 0, tmpRoot: t.TempDir()}
}

// TestSmokeWorkloads runs every workload at the smoke scale, untraced and
// traced, on the default seed (so the golden file is exercised too) and
// holds the two modes to the same fingerprint and to the metric tables.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			o := smokeOptions(t)
			untraced, err := run(w, o)
			if err != nil {
				t.Fatal(err)
			}
			o.traced = true
			o.tracePath = filepath.Join(t.TempDir(), "trace.json")
			traced, err := run(w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []*runResult{untraced, traced} {
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v failed=%d attempted=%d problems=%v",
						res.Traced, res.Correct, res.Failed, res.Attempted, res.Problems)
				}
			}
			if untraced.Fingerprint != traced.Fingerprint {
				t.Errorf("traced fingerprint %s != untraced %s", traced.Fingerprint, untraced.Fingerprint)
			}
			checkNames(t, "untraced", untraced.Metrics, endToEnd)
			checkNames(t, "traced", traced.Metrics, perLayer)
			for _, d := range endToEnd {
				if !(untraced.Metrics[d.Name].Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, untraced.Metrics[d.Name].Value)
				}
			}
			if r := traced.Metrics["core.residual_frac"].Value; !(r >= 0 && r <= 0.05) {
				t.Errorf("core.residual_frac = %v, want within [0, 0.05]", r)
			}

			// The Chrome trace carries span, parent and operation identifiers.
			data, err := os.ReadFile(o.tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Ph   string                 `json:"ph"`
					Args map[string]interface{} `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatal(err)
			}
			spansSeen, withOp := 0, 0
			for _, e := range trace.TraceEvents {
				if e.Ph != "X" {
					continue
				}
				spansSeen++
				if _, ok := e.Args["id"]; !ok {
					t.Fatalf("span without id: %+v", e)
				}
				if _, ok := e.Args["parent"]; !ok {
					t.Fatalf("span without parent: %+v", e)
				}
				if op, _ := e.Args["op"].(float64); op > 0 {
					withOp++
				}
			}
			if spansSeen == 0 || withOp == 0 {
				t.Errorf("trace has %d spans, %d with an operation id", spansSeen, withOp)
			}
		})
	}
}

func checkNames(t *testing.T, mode string, got map[string]metricValue, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s run emitted %d metrics, table has %d", mode, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s run did not emit %s", mode, d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s: unit %q, table says %q", d.Name, v.Unit, d.Unit)
		}
	}
}

// TestCheckerCanFail damages each workload's bit-reference and requires
// the run to report failed operations: a checker that cannot fail checks
// nothing.
func TestCheckerCanFail(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			o := smokeOptions(t)
			o.corrupt = true
			res, err := run(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.FailFrac <= 0 || res.Correct {
				t.Errorf("corrupted reference went unnoticed: failed=%d fail_frac=%v correct=%v",
					res.Failed, res.FailFrac, res.Correct)
			}
		})
	}
}

// TestSpecMatchesTables holds BENCHMARK.json to the metric tables and to
// the limits of the driver's contract.
func TestSpecMatchesTables(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	names := workloadNames()
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(names) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", n, len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, names[i])
		}
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is not a contract name", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}

	if n := len(spec.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", n, len(endToEnd))
	}
	sawSetup := false
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end %s (%s) breaks the name or unit pattern", m.Name, m.Unit)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
			for _, other := range spec.EndToEnd {
				if other.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v > %v", other.Name, other.Bound, m.Bound)
				}
			}
		}
	}
	if !sawSetup {
		t.Error("BENCHMARK.json lacks setup_s in seconds, lower is better")
	}

	if n := len(spec.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", n, len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %s (%s) breaks the name or unit pattern", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if seen[m.Name] {
			t.Errorf("name %s used twice", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
}

// TestResultLine drives the command line as the driver does and checks
// the shape of the last line of standard output.
func TestResultLine(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		err := realMain([]string{"--workload", "wire-2rank", "--seed", "5", "--seconds", "0.01", "--trace", trace, "-smoke"}, &out)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not a JSON object: %v\n%s", err, lines[len(lines)-1])
		}
		if len(line) != 4 {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := line[k]; !ok {
				t.Errorf("result line lacks %q", k)
			}
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		checkNames(t, "trace="+trace, metrics, want)
	}
}

// TestCompare covers the three verdicts and the exact-count rule.
func TestCompare(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, walls []float64, iterations float64) string {
		var runs []*runResult
		for _, wall := range walls {
			m := metricSet{"setup_s": 1, "wall_s": wall, "op_p50_s": 1, "op_p85_s": 1, "alloc_mb": 1}
			runs = append(runs,
				&runResult{Workload: "fh-single", Metrics: m.export(endToEnd)},
				&runResult{Workload: "fh-single", Traced: true, Metrics: metricSet{"solver.iterations": iterations}.export(perLayer)})
		}
		path := filepath.Join(dir, name)
		if err := appendResults(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []float64{10, 10.1, 10.2}, 100)
	cases := []struct {
		name    string
		other   string
		verdict string
		fails   bool
	}{
		{"same", write("same.json", []float64{10.1, 10.2, 10.3}, 100), "ok", false},
		{"slower", write("slower.json", []float64{14, 14.1, 14.2}, 100), "regressed", true},
		{"noisy", write("noisy.json", []float64{8, 10, 14}, 100), "unresolved", false},
		{"count", write("count.json", []float64{10, 10.1, 10.2}, 101), "regressed", true},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := compareSets(&out, spec, base, c.other)
		if (err != nil) != c.fails {
			t.Errorf("%s: error %v, want failure=%v\n%s", c.name, err, c.fails, out.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.verdict, out.String())
		}
	}
}
