package core

import (
	"fmt"

	"femtoverse/internal/contract"
	"femtoverse/internal/hio"
	"femtoverse/internal/solver"
	"femtoverse/internal/stats"
)

// Campaign is a checkpointable measurement campaign: the production
// analogue runs for months across batch allocations, so the per-
// configuration correlators are persisted through the hio container and
// an interrupted campaign resumes exactly where it stopped, bit-for-bit
// (configurations are regenerated deterministically from the seed).
type Campaign struct {
	Spec RealConfig
	// C2 and CFH hold the finished configurations' correlators, indexed
	// by configuration number; missing entries are still to do.
	C2  map[int][]float64
	CFH map[int][]float64
}

// NewCampaign starts an empty campaign for the spec.
func NewCampaign(spec RealConfig) *Campaign {
	return &Campaign{
		Spec: spec,
		C2:   map[int][]float64{},
		CFH:  map[int][]float64{},
	}
}

// Done counts finished configurations.
func (c *Campaign) Done() int { return len(c.C2) }

// Complete reports whether every configuration has been measured.
func (c *Campaign) Complete() bool { return c.Done() >= c.Spec.NConfigs }

// Save writes the campaign state into an hio container group.
func (c *Campaign) Save(root *hio.Group) error {
	grp, err := root.CreateGroup("campaign")
	if err != nil {
		return err
	}
	grp.SetAttrFloat("beta", c.Spec.Beta)
	grp.SetAttrFloat("tol", c.Spec.Tol)
	grp.SetAttrFloat("mass", c.Spec.Params.M)
	dims := []int64{
		int64(c.Spec.Dims[0]), int64(c.Spec.Dims[1]),
		int64(c.Spec.Dims[2]), int64(c.Spec.Dims[3]),
		int64(c.Spec.Params.Ls), int64(c.Spec.NConfigs),
		c.Spec.Seed, int64(c.Spec.ThermSweeps), int64(c.Spec.GapSweeps),
		int64(c.Spec.Prec),
	}
	if err := grp.WriteInt64("meta", []int{len(dims)}, dims); err != nil {
		return err
	}
	grp.SetAttrFloat("m5", c.Spec.Params.M5)
	grp.SetAttrFloat("b5", c.Spec.Params.B5)
	grp.SetAttrFloat("c5", c.Spec.Params.C5)
	for i, c2 := range c.C2 {
		sub, err := grp.CreateGroup(fmt.Sprintf("cfg%04d", i))
		if err != nil {
			return err
		}
		if err := sub.WriteFloat64("c2", []int{len(c2)}, c2); err != nil {
			return err
		}
		if err := sub.WriteFloat64("cfh", []int{len(c.CFH[i])}, c.CFH[i]); err != nil {
			return err
		}
	}
	return nil
}

// LoadCampaign restores a campaign saved with Save.
func LoadCampaign(root *hio.Group) (*Campaign, error) {
	grp, err := root.Group("campaign")
	if err != nil {
		return nil, err
	}
	_, meta, err := grp.ReadInt64("meta")
	if err != nil {
		return nil, err
	}
	if len(meta) != 10 {
		return nil, fmt.Errorf("core: campaign metadata has %d fields", len(meta))
	}
	spec := RealConfig{
		Dims:        [4]int{int(meta[0]), int(meta[1]), int(meta[2]), int(meta[3])},
		NConfigs:    int(meta[5]),
		Seed:        meta[6],
		ThermSweeps: int(meta[7]),
		GapSweeps:   int(meta[8]),
		Prec:        solver.Precision(meta[9]),
	}
	spec.Params.Ls = int(meta[4])
	if spec.Beta, err = grp.AttrFloat("beta"); err != nil {
		return nil, err
	}
	if spec.Tol, err = grp.AttrFloat("tol"); err != nil {
		return nil, err
	}
	if spec.Params.M, err = grp.AttrFloat("mass"); err != nil {
		return nil, err
	}
	if spec.Params.M5, err = grp.AttrFloat("m5"); err != nil {
		return nil, err
	}
	if spec.Params.B5, err = grp.AttrFloat("b5"); err != nil {
		return nil, err
	}
	if spec.Params.C5, err = grp.AttrFloat("c5"); err != nil {
		return nil, err
	}
	c := NewCampaign(spec)
	for i := 0; i < spec.NConfigs; i++ {
		sub, err := grp.Group(fmt.Sprintf("cfg%04d", i))
		if err != nil {
			continue // not yet measured
		}
		_, c2, err := sub.ReadFloat64("c2")
		if err != nil {
			return nil, err
		}
		_, cfh, err := sub.ReadFloat64("cfh")
		if err != nil {
			return nil, err
		}
		c.C2[i] = c2
		c.CFH[i] = cfh
	}
	return c, nil
}

// Result assembles the analysis of the finished configurations: their
// correlators in configuration order plus the jackknifed effective
// coupling over them (at least two are required). It is the only place
// the jackknife over configurations is set up.
func (c *Campaign) Result() (*RealResult, error) {
	if c.Done() < MinConfigs {
		return nil, fmt.Errorf("core: %d finished configurations; need >= %d", c.Done(), MinConfigs)
	}
	tExt := c.Spec.Dims[3]
	res := &RealResult{SolvesPerConfig: 24}
	joined := make([][]float64, 0, c.Done())
	for i := 0; i < c.Spec.NConfigs; i++ {
		c2, ok := c.C2[i]
		if !ok {
			continue
		}
		res.C2 = append(res.C2, c2)
		res.CFH = append(res.CFH, c.CFH[i])
		v := make([]float64, 2*tExt)
		copy(v[:tExt], c2)
		copy(v[tExt:], c.CFH[i])
		joined = append(joined, v)
	}
	res.Geff, res.GeffErr = stats.JackknifeVec(joined, func(mean []float64) []float64 {
		return contract.EffectiveGA(mean[tExt:], mean[:tExt])
	})
	return res, nil
}

// Geff returns Result's effective-coupling curve and its jackknife error.
func (c *Campaign) Geff() (geff, err []float64, e error) {
	res, e := c.Result()
	if e != nil {
		return nil, nil, e
	}
	return res.Geff, res.GeffErr, nil
}
