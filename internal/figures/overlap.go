package figures

import (
	"fmt"
	"strings"

	"femtoverse/internal/domain"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/machine"
	"femtoverse/internal/perfmodel"
)

func init() {
	register("overlap", genOverlap)
}

// Overlap ties the real halo pipeline to the performance model: for a
// sweep of process grids, the *measured* interior fraction and halo bytes
// of the distributed dslash (package domain, which really packs faces,
// sends them over channels, and overlaps the interior compute) sit next
// to the modeled exposed-communication fraction at the corresponding
// Sierra scale. As the local volume shrinks the interior fraction - the
// paper's overlap budget for "in an ideal world the communication can be
// completely overlapped" - collapses, which is exactly where the modeled
// strong scaling rolls over.
type Overlap struct {
	Rows []OverlapRow
}

// OverlapRow is one decomposition.
type OverlapRow struct {
	Grid         [4]int
	Ranks        int
	InteriorFrac float64 // measured: sites computable before any halo
	HaloKB       float64 // measured: bytes exchanged per application
	ModelExposed float64 // modeled: exposed comm fraction of the iteration
}

// Name implements Result.
func (Overlap) Name() string { return "overlap" }

// Title implements Result.
func (Overlap) Title() string {
	return "Halo-overlap budget: measured interior fraction vs modeled exposure"
}

// Render implements Result.
func (o Overlap) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# grid      ranks  interior_frac  halo_KB  model_exposed_frac\n")
	for _, r := range o.Rows {
		grid := fmt.Sprintf("%dx%dx%dx%d", r.Grid[0], r.Grid[1], r.Grid[2], r.Grid[3])
		fmt.Fprintf(&b, "%-9s %6d  %12.2f  %7.0f  %17.2f\n",
			grid, r.Ranks, r.InteriorFrac, r.HaloKB, r.ModelExposed)
	}
	fmt.Fprintf(&b, "# shrinking local volumes destroy the overlap budget (measured) just as\n")
	fmt.Fprintf(&b, "# the modeled exposed communication grows - the Fig. 4 rollover mechanism\n")
	return b.String()
}

func genOverlap(bool) (Result, error) {
	g := lattice.MustNew(8, 8, 8, 16)
	cfg := gauge.NewUnit(g)
	grids := [][4]int{
		{1, 1, 1, 2},
		{1, 1, 2, 2},
		{2, 2, 2, 2},
		{2, 2, 2, 4},
	}
	// Model the same surface-to-volume trajectory on Sierra with the
	// production problem: GPU counts chosen so local volumes shrink by
	// the same factors.
	model := perfmodel.New(machine.Sierra())
	problem := perfmodel.Problem{Global: [4]int{48, 48, 48, 64}, Ls: 20}
	modelGPUs := []int{2, 4, 16, 32}

	var out Overlap
	for i, grid := range grids {
		d, err := domain.NewDist(cfg, grid, 0.1)
		if err != nil {
			return nil, err
		}
		pt, err := model.Solve(problem, modelGPUs[i])
		if err != nil {
			return nil, err
		}
		// Exposed fraction = (iter - pure-compute) / iter, the pure-compute
		// time recomputed from the model constants.
		bytesPerIter := float64(problem.Sites5D()) / float64(modelGPUs[i]) *
			perfmodel.FlopsPerSite5D / perfmodel.AI
		tComp := bytesPerIter / (machine.Sierra().EffectiveBWPerGPUGB() * 1e9)
		exposed := (pt.IterSeconds - tComp) / pt.IterSeconds
		if exposed < 0 {
			exposed = 0
		}
		out.Rows = append(out.Rows, OverlapRow{
			Grid:         grid,
			Ranks:        d.Ranks(),
			InteriorFrac: d.InteriorFraction(),
			HaloKB:       float64(d.HaloBytesPerApply()) / 1024,
			ModelExposed: exposed,
		})
	}
	// The shapes must move in opposite directions.
	first, last := out.Rows[0], out.Rows[len(out.Rows)-1]
	if last.InteriorFrac >= first.InteriorFrac {
		return nil, fmt.Errorf("figures: interior fraction did not shrink")
	}
	if last.ModelExposed <= first.ModelExposed {
		return nil, fmt.Errorf("figures: modeled exposure did not grow")
	}
	return out, nil
}
