// Concurrent campaign: the live job runtime (mpi_jm on goroutines)
// running the real Feynman-Hellmann pipeline. Where examples/jobmanager
// *simulates* a Sierra allocation, this example *executes*: gauge
// configurations are solved concurrently on the solve worker class while
// each configuration's contractions run as dependent tasks on the
// contraction class - co-scheduling for real - and the result is
// bit-for-bit identical to the sequential pipeline at any worker count.
//
// The second half drives the pool directly: a task graph with injected
// failures and bounded retry, the live analogue of the simulator's
// node-failure model.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"femtoverse"
)

func main() {
	// Part 1: the real pipeline, concurrently.
	cfg := femtoverse.DefaultRealPipelineConfig()
	cfg.NConfigs = 4

	seq, err := femtoverse.RunRealPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	conc, rep, err := femtoverse.RunCampaign(context.Background(), cfg, femtoverse.CampaignOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	identical := len(seq.Geff) == len(conc.Geff)
	for i := range seq.Geff {
		identical = identical && seq.Geff[i] == conc.Geff[i]
	}
	fmt.Printf("sequential vs 4-way concurrent: bit-for-bit identical = %v\n", identical)
	fmt.Println(rep)

	// Part 2: the pool itself - dependencies, failure injection, retry.
	var tasks []femtoverse.JobTask
	for i := 0; i < 8; i++ {
		i := i
		tasks = append(tasks, femtoverse.JobTask{
			ID: 2 * i, Name: fmt.Sprintf("solve-%d", i),
			Class: femtoverse.SolveTask, Cost: 0.05,
			Run: func(ctx context.Context) (interface{}, error) {
				time.Sleep(50 * time.Millisecond) // a stand-in solve
				return i, nil
			},
		}, femtoverse.JobTask{
			ID: 2*i + 1, Name: fmt.Sprintf("contract-%d", i),
			Class: femtoverse.ContractTask, Cost: 0.01,
			DependsOn: []int{2 * i},
			Run: func(ctx context.Context) (interface{}, error) {
				time.Sleep(10 * time.Millisecond)
				return nil, nil
			},
		})
	}
	_, rep2, err := femtoverse.RunJobs(context.Background(), femtoverse.JobConfig{
		SolveWorkers:    4,
		ContractWorkers: 2,
		MaxRetries:      10,
		// Roughly every fifth attempt dies, as on a real machine; the
		// draws are keyed by task identity, so this chaos run replays
		// exactly at any worker count.
		Fault: femtoverse.FaultPlan{Seed: 41, Transient: 0.2},
	}, tasks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep2)
	fmt.Printf("failed attempts retried to success: %d\n", rep2.FailedAttempts)
}
