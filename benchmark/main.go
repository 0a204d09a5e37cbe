// Command benchmark is the repository's time-to-solution benchmark: four
// named workloads through the product's public entry points, five
// end-to-end metrics from an untraced run, and per-layer attribution from
// a traced run whose spans are recorded here, around the calls into each
// layer, not inside the product. See README.md.
//
//	go run . [-workload w] [-seed n] [-seconds s] [-trace 0|1|out.json] [-json] [-out set.json]
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"femtoverse/internal/solver"
)

// workloads returns the four workloads in run order.
func workloads() []workload {
	return []workload{
		fhWorkload("fh-single", solver.Single),
		fhWorkload("fh-half", solver.Half),
		wireWorkload(),
		serveWorkload(),
	}
}

// workloadNames lists the workloads in run order.
func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
		seed      = fs.Int64("seed", goldenSeed, "seed every input derives from")
		secs      = fs.Float64("seconds", 0, "length of the timed region (default: run_seconds of BENCHMARK.json)")
		trace     = fs.String("trace", "0", "0: untraced end-to-end run; 1: traced per-layer run; a path: traced, and write the Chrome trace there")
		asJSON    = fs.Bool("json", false, "print the full results as JSON instead of the tables")
		out       = fs.String("out", "", "append the results to this result-set file (the input of -compare)")
		smoke     = fs.Bool("smoke", false, "run at the tiny scale of the smoke test")
		compare   = fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		newGolden = fs.Bool("update-golden", false, "rewrite "+goldenPath+" from default-seed runs (run from benchmark/)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result-set files")
		}
		spec, err := loadSpec()
		if err != nil {
			return err
		}
		return compareSets(stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *secs <= 0 {
		spec, err := loadSpec()
		if err != nil {
			return fmt.Errorf("-seconds not given and %w", err)
		}
		*secs = float64(spec.RunSeconds)
	}
	if *newGolden {
		return updateGolden(*secs)
	}

	o := runOptions{sc: fullScale(), seed: *seed, seconds: *secs}
	if *smoke {
		o.sc = smokeScale()
	}
	switch *trace {
	case "0", "":
	case "1":
		o.traced = true
	default:
		o.traced, o.tracePath = true, *trace
	}
	var selected []workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q (have all, %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if o.tracePath != "" && len(selected) > 1 {
		return errors.New("-trace <path> writes one trace: pick one -workload")
	}

	say := func(format string, args ...interface{}) error {
		_, err := fmt.Fprintf(stdout, format, args...)
		return err
	}
	if !*asJSON {
		if err := say("femtobench: seed=%d seconds=%g tol=%g GOMAXPROCS=%d nproc=%d traced=%v\n",
			o.seed, o.seconds, tol, runtime.GOMAXPROCS(0), runtime.NumCPU(), o.traced); err != nil {
			return err
		}
	}
	var results []*runResult
	for _, w := range selected {
		res, err := run(w, o)
		if err != nil {
			return err
		}
		results = append(results, res)
		if !*asJSON {
			if err := say("%s", renderResult(res)); err != nil {
				return err
			}
		}
	}
	if *asJSON {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := say("%s\n", data); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			return err
		}
	}

	// The driver's result line: last on standard output, one object. A
	// multi-workload run has no single set of metrics to put there, so it
	// prints one line per workload, the last workload's last.
	allCorrect := true
	for _, res := range results {
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return err
		}
		if err := say("%s\n", line); err != nil {
			return err
		}
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		return errors.New("a correctness check failed")
	}
	return nil
}

// renderResult lists one run's metrics by name and unit.
func renderResult(res *runResult) string {
	w := &strings.Builder{}
	mode, defs := "untraced", endToEnd
	if res.Traced {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s [%s]  operation: %s\n", res.Workload, mode, res.Operation)
	fmt.Fprintf(w, "   passes=%d operations=%d (%d a pass) fingerprint=%.16s correct=%v\n",
		res.Passes, res.Passes*res.OpsPerPass, res.OpsPerPass, res.Fingerprint, res.Correct)
	if res.Traced {
		fmt.Fprintf(w, "   %s\n", res.host)
	}
	n := res.Passes * res.OpsPerPass
	notes := map[string]string{
		"setup_s":  "fastest of the run's set-ups",
		"wall_s":   fmt.Sprintf("fastest of %d passes, time to solution at tol %g", res.Passes, tol),
		"op_p50_s": fmt.Sprintf("%d operations issued, each at its fastest of %d", n, res.Passes),
		"op_p85_s": fmt.Sprintf("%d operations issued, each at its fastest of %d", n, res.Passes),
		"alloc_mb": "median TotalAlloc delta of a pass",
	}
	layer := ""
	for _, d := range defs {
		if l, _, ok := strings.Cut(d.Name, "."); ok && l != layer {
			layer = l
			fmt.Fprintf(w, "   -- %s\n", layer)
		}
		line := fmt.Sprintf("   %-34s %14.6g %-7s", d.Name, res.Metrics[d.Name].Value, d.Unit)
		if note := notes[d.Name]; note != "" {
			line += " (" + note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "   %-34s %14.6g %-7s (%d failed of %d attempted)\n", "fail_frac", res.FailFrac, "ratio", res.Failed, res.Attempted)
	problems := append([]string(nil), res.Problems...)
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	return w.String()
}

// resultSet is the file -out appends to and -compare reads: any number
// of runs of any workloads, all from one commit.
type resultSet struct {
	Schema string       `json:"schema"`
	Runs   []*runResult `json:"runs"`
}

const resultSchema = "femtobench/v1"

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if set.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, set.Schema, resultSchema)
	}
	return &set, nil
}

func appendResults(path string, results []*runResult) error {
	set := &resultSet{Schema: resultSchema}
	if _, err := os.Stat(path); err == nil {
		if set, err = readResultSet(path); err != nil {
			return err
		}
	}
	set.Runs = append(set.Runs, results...)
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
