package core

import (
	"context"
	"fmt"
	"testing"
)

// benchSpec is small enough for repeated timed runs but large enough
// that the solve tasks dominate, as in production.
func benchSpec() RealConfig {
	cfg := DefaultRealConfig()
	cfg.Dims = [4]int{2, 2, 2, 6}
	cfg.NConfigs = 4
	cfg.ThermSweeps = 3
	cfg.GapSweeps = 1
	return cfg
}

// BenchmarkCampaignSequential is the baseline: configurations measured
// one after another on the full machine.
func BenchmarkCampaignSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := NewCampaign(benchSpec())
		if n, _, err := c.Run(context.Background(), 100, RunOptions{}); err != nil || n != benchSpec().NConfigs {
			b.Fatalf("%d, %v", n, err)
		}
	}
}

// BenchmarkCampaignConcurrent measures the job-runtime driver at several
// worker counts and records the pool's solve-class utilization - the
// live analogue of the paper's Fig. 6 idle-time accounting. Speedup over
// the sequential baseline is sublinear on a single machine (each solve
// already uses every core through the threaded kernels); what the
// runtime buys is overlap of the contraction and I/O stages with
// solves, and the utilization metric quantifies it.
func BenchmarkCampaignConcurrent(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				c := NewCampaign(benchSpec())
				n, rep, err := c.Run(context.Background(), 100, RunOptions{Workers: workers})
				if err != nil || n != benchSpec().NConfigs {
					b.Fatalf("%d, %v", n, err)
				}
				util += rep.SolveUtil
			}
			b.ReportMetric(util/float64(b.N), "solve-util")
		})
	}
}
