package perfmodel

import (
	"math"
	"testing"

	"femtoverse/internal/machine"
)

var fig3Problem = Problem{Global: [4]int{48, 48, 48, 64}, Ls: 20}

func TestBestPointBandwidthMatchesPaper(t *testing.T) {
	// Fig. 3c: at the lowest GPU counts the sustained effective bandwidth
	// per GPU is 139 / 516 / 975 GB/s on Titan / Ray / Sierra. Our model
	// must land within 10% (the residual is exposed communication).
	cases := []struct {
		m    machine.Machine
		gpus int
		want float64
	}{
		{machine.Titan(), 4, 139},
		{machine.Ray(), 4, 516},
		{machine.Sierra(), 4, 975},
	}
	for _, c := range cases {
		pt, err := New(c.m).Solve(fig3Problem, c.gpus)
		if err != nil {
			t.Fatalf("%s: %v", c.m.Name, err)
		}
		if rel := math.Abs(pt.BWPerGPU-c.want) / c.want; rel > 0.10 {
			t.Fatalf("%s: BW/GPU = %.0f, paper %v (rel %.2f)", c.m.Name, pt.BWPerGPU, c.want, rel)
		}
	}
}

func TestSierraSmallJobTwentyPercentOfPeak(t *testing.T) {
	// Section VII: "a sustained performance of 20% on the minimal number
	// of nodes" - one Sierra node, 4 GPUs, all-NVLink communication.
	pt, err := New(machine.Sierra()).Solve(fig3Problem, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pt.PctPeak < 19 || pt.PctPeak > 22 {
		t.Fatalf("Sierra single-node job: %.1f%% of peak, paper says ~20%%", pt.PctPeak)
	}
	// And 4-node (16-GPU) production jobs stay close to that.
	pt16, err := New(machine.Sierra()).Solve(fig3Problem, 16)
	if err != nil {
		t.Fatal(err)
	}
	if pt16.PctPeak < 17 || pt16.PctPeak > pt.PctPeak {
		t.Fatalf("Sierra 4-node job: %.1f%% of peak", pt16.PctPeak)
	}
}

func TestGenerationOrderingAtFixedScale(t *testing.T) {
	// Fig. 3: each successive GPU generation is faster AND reaches a
	// higher percent of peak.
	var lastTF, lastPct float64
	for _, m := range []machine.Machine{machine.Titan(), machine.Ray(), machine.Sierra()} {
		pt, err := New(m).Solve(fig3Problem, 16)
		if err != nil {
			t.Fatal(err)
		}
		if pt.TFlops <= lastTF {
			t.Fatalf("%s not faster than predecessor: %v <= %v", m.Name, pt.TFlops, lastTF)
		}
		if pt.PctPeak <= lastPct {
			t.Fatalf("%s percent of peak did not increase: %v <= %v", m.Name, pt.PctPeak, lastPct)
		}
		lastTF, lastPct = pt.TFlops, pt.PctPeak
	}
}

func TestStrongScalingEfficiencyDecays(t *testing.T) {
	m := New(machine.Sierra())
	pts := m.StrongScaling(fig3Problem, []int{4, 8, 16, 32, 64, 128})
	if len(pts) < 4 {
		t.Fatalf("only %d admissible points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		// Aggregate performance keeps rising over this range...
		if pts[i].TFlops <= pts[i-1].TFlops {
			t.Fatalf("aggregate TFLOPS fell at %d GPUs", pts[i].GPUs)
		}
		// ...but efficiency (percent of peak) monotonically decays.
		if pts[i].PctPeak > pts[i-1].PctPeak+1e-9 {
			t.Fatalf("efficiency rose from %d to %d GPUs", pts[i-1].GPUs, pts[i].GPUs)
		}
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.PctPeak > 0.9*first.PctPeak {
		t.Fatalf("no visible strong-scaling degradation: %.1f%% -> %.1f%%", first.PctPeak, last.PctPeak)
	}
}

func TestSummitLargeProblemRolloverPast2000GPUs(t *testing.T) {
	// Fig. 4: 96^3 x 144 on Summit approaches 1.5 PFLOPS but suffers a
	// large drop in solver efficiency past ~2000 GPUs.
	p := Problem{Global: [4]int{96, 96, 96, 144}, Ls: 20}
	m := New(machine.Summit())
	small, err := m.Solve(p, 96)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := m.Solve(p, 1536)
	if err != nil {
		t.Fatal(err)
	}
	big, err := m.Solve(p, 10368)
	if err != nil {
		t.Fatal(err)
	}
	// Peak aggregate rate is around 1-2 PFLOPS at the large end.
	if big.TFlops < 800 || big.TFlops > 2500 {
		t.Fatalf("large-scale rate %.0f TFLOPS outside Fig. 4's ballpark", big.TFlops)
	}
	// Efficiency collapse: per-GPU rate at 10k GPUs far below small scale.
	effSmall := small.TFlops / float64(small.GPUs)
	effBig := big.TFlops / float64(big.GPUs)
	if effBig > 0.5*effSmall {
		t.Fatalf("no efficiency collapse: %.3f vs %.3f TFLOPS/GPU", effBig, effSmall)
	}
	// And the mid point still scales reasonably (the rollover is past it).
	effMid := mid.TFlops / float64(mid.GPUs)
	if effMid < 0.5*effSmall {
		t.Fatalf("rollover happened too early: %.3f vs %.3f TFLOPS/GPU at %d GPUs",
			effMid, effSmall, mid.GPUs)
	}
}

func TestPolicyChoiceRecorded(t *testing.T) {
	pt, err := New(machine.Sierra()).Solve(fig3Problem, 64)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Choice.Policy.String() == "" {
		t.Fatal("no policy recorded")
	}
	if pt.Nodes != 16 {
		t.Fatalf("64 GPUs on Sierra = %d nodes, want 16", pt.Nodes)
	}
}

func TestJobPerformanceMatchesSolve(t *testing.T) {
	m := New(machine.Sierra())
	tf, err := m.JobPerformance(fig3Problem, 16)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := m.Solve(fig3Problem, 16)
	if math.Abs(tf-pt.TFlops) > 1e-12 {
		t.Fatal("JobPerformance disagrees with Solve")
	}
}

func TestSustainedPctPeakConvention(t *testing.T) {
	m := New(machine.Sierra())
	// 20 PFLOPS raw on 3388 nodes: the paper's headline 15%-ish number.
	pct := m.SustainedPctPeak(20000, 3388)
	if pct < 14 || pct > 18 {
		t.Fatalf("20 PF on 3388 Sierra nodes = %.1f%%, paper says ~15%%", pct)
	}
}

func TestImpossibleDecompositionErrors(t *testing.T) {
	m := New(machine.Sierra())
	if _, err := m.Solve(Problem{Global: [4]int{48, 48, 48, 64}, Ls: 20}, 7); err == nil {
		t.Fatal("7 GPUs accepted for 48^3 x 64")
	}
}

// TestSolveIndependentOfCallOrder: the policy a model picks, and so every
// figure of the point, is a function of the problem and the GPU count
// alone. One model asked about every count in ascending order must answer
// each as a fresh model does - a policy remembered from an earlier count
// (a key that leaves out the exchange) would differ here.
func TestSolveIndependentOfCallOrder(t *testing.T) {
	problems := []Problem{fig3Problem, {Global: [4]int{24, 24, 24, 64}, Ls: 16}}
	for _, mach := range []machine.Machine{machine.Sierra(), machine.Summit()} {
		for _, p := range problems {
			swept := New(mach)
			for _, n := range []int{1, 2, 3, 4, 6} {
				got, gotErr := swept.Solve(p, n)
				want, wantErr := New(mach).Solve(p, n)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("%s %v on %d GPUs: error %v after the sweep, %v fresh", mach.Name, p.Global, n, gotErr, wantErr)
				}
				if got.Choice != want.Choice ||
					math.Float64bits(got.TFlops) != math.Float64bits(want.TFlops) ||
					math.Float64bits(got.PctPeak) != math.Float64bits(want.PctPeak) ||
					math.Float64bits(got.IterSeconds) != math.Float64bits(want.IterSeconds) {
					t.Errorf("%s %v on %d GPUs: %v %v TF after the sweep, %v %v TF fresh",
						mach.Name, p.Global, n, got.Choice, got.TFlops, want.Choice, want.TFlops)
				}
			}
		}
	}
}

func TestSites5D(t *testing.T) {
	if fig3Problem.Sites5D() != 48*48*48*64*20 {
		t.Fatal("Sites5D wrong")
	}
}
