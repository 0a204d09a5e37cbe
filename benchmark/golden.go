package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// goldenSeed is the default seed, the one whose outputs are pinned.
const goldenSeed = 1

// goldenPath is the golden file, relative to this directory.
const goldenPath = "testdata/golden_seed1.json"

// goldenJSON pins, for the default seed, each workload's fingerprint and
// the counts that are pure functions of the inputs. On any other seed
// correctness rests on self-consistency alone: residual within tol, wire
// equal to in-process, traced equal to untraced, warm equal to cold.
//
//go:embed testdata/golden_seed1.json
var goldenJSON []byte

// goldenCounts are the counts the golden file pins.
var goldenCounts = []string{"solver.iterations", "core.solver_iterations", "wire.halo_frames", "wire.halo_wire_bytes"}

type goldenEntry struct {
	Fingerprint string             `json:"fingerprint"`
	Counts      map[string]float64 `json:"counts"`
}

type goldenFile struct {
	Seed int64 `json:"seed"`
	// Entries are keyed "<scale>/<workload>", scale being full or smoke.
	Entries map[string]goldenEntry `json:"entries"`
}

func goldenKey(smoke bool, workload string) string {
	if smoke {
		return "smoke/" + workload
	}
	return "full/" + workload
}

func goldenOf(res *runResult) goldenEntry {
	g := goldenEntry{Fingerprint: res.Fingerprint, Counts: map[string]float64{}}
	for _, name := range goldenCounts {
		if v, ok := res.counts[name]; ok {
			g.Counts[name] = v
		}
	}
	return g
}

// checkGolden compares a default-seed run with the pinned outputs.
func checkGolden(o runOptions, res *runResult) []string {
	if o.seed != goldenSeed || o.corrupt || o.skipGolden {
		return nil
	}
	var file goldenFile
	if err := json.Unmarshal(goldenJSON, &file); err != nil {
		return []string{fmt.Sprintf("golden file: %v", err)}
	}
	key := goldenKey(o.sc.smoke, res.Workload)
	want, ok := file.Entries[key]
	if !ok {
		return []string{fmt.Sprintf("golden file has no entry %q (run -update-golden)", key)}
	}
	var problems []string
	got := goldenOf(res)
	if got.Fingerprint != want.Fingerprint {
		problems = append(problems, fmt.Sprintf("fingerprint %.12s differs from golden %.12s", got.Fingerprint, want.Fingerprint))
	}
	names := make([]string, 0, len(want.Counts))
	for name := range want.Counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got.Counts[name] != want.Counts[name] {
			problems = append(problems, fmt.Sprintf("%s = %v, golden %v", name, got.Counts[name], want.Counts[name]))
		}
	}
	return problems
}

// updateGolden reruns every workload at both scales on the default seed
// and rewrites the golden file from runs that passed every other check -
// among them, for the campaign workloads, bit-equality with core.RunReal.
func updateGolden(seconds float64) error {
	file := goldenFile{Seed: goldenSeed, Entries: map[string]goldenEntry{}}
	for _, sc := range []scale{fullScale(), smokeScale()} {
		for _, w := range workloads() {
			res, err := run(w, runOptions{sc: sc, seed: goldenSeed, seconds: seconds, skipGolden: true})
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: refusing to pin an incorrect run: %v", w.name, res.Problems)
			}
			file.Entries[goldenKey(sc.smoke, w.name)] = goldenOf(res)
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
