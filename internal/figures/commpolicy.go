package figures

import (
	"fmt"
	"strings"

	"femtoverse/internal/comms"
	"femtoverse/internal/machine"
)

func init() {
	register("commpolicy", genCommPolicy)
}

// CommPolicy tabulates which halo-exchange strategy wins across the
// message-size / concurrency plane - the multi-dimensional parameter
// space of Section V whose machine-specificity is the whole argument for
// autotuning the communication policy rather than hard-coding it.
type CommPolicy struct {
	Machine string
	Rows    []CommPolicyRow
}

// CommPolicyRow is one operating point.
type CommPolicyRow struct {
	MessageKB  float64
	GPUsPerNIC int
	Compute    float64 // overlappable compute seconds
	Best       comms.Choice
	ExposedUS  float64
}

// Name implements Result.
func (CommPolicy) Name() string { return "commpolicy" }

// Title implements Result.
func (c CommPolicy) Title() string {
	return "Communication-policy winners across message size and NIC sharing (" + c.Machine + ")"
}

// Render implements Result.
func (c CommPolicy) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# msg_KB  gpus_per_nic  compute_ms  winner                 exposed_us\n")
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "%7.0f  %12d  %10.2f  %-22s %9.1f\n",
			r.MessageKB, r.GPUsPerNIC, r.Compute*1e3, r.Best.String(), r.ExposedUS)
	}
	fmt.Fprintf(&b, "# distinct winners prove no single policy dominates -> autotune it (paper V)\n")
	return b.String()
}

func genCommPolicy(bool) (Result, error) {
	// Titan offers all three policies (it has GPUDirect).
	m := comms.Model{M: machine.Titan()}
	out := CommPolicy{Machine: "Titan"}
	for _, msgKB := range []float64{4, 64, 1024, 16384} {
		for _, share := range []int{1, 4} {
			for _, compute := range []float64{0, 5e-3} {
				ex := comms.Exchange{
					InterBytes:     msgKB * 1024,
					IntraBytes:     0,
					Dims:           4,
					GPUsPerNIC:     share,
					Nodes:          16,
					ComputeSeconds: compute,
				}
				best, t := m.Best(ex)
				out.Rows = append(out.Rows, CommPolicyRow{
					MessageKB:  msgKB,
					GPUsPerNIC: share,
					Compute:    compute,
					Best:       best,
					ExposedUS:  t * 1e6,
				})
			}
		}
	}
	// The table is only interesting if the winner actually changes.
	winners := map[string]bool{}
	for _, r := range out.Rows {
		winners[r.Best.String()] = true
	}
	if len(winners) < 2 {
		return nil, fmt.Errorf("figures: commpolicy degenerate (single winner %v)", winners)
	}
	return out, nil
}
