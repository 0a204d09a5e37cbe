package core

import (
	"fmt"

	"femtoverse/internal/contract"
	"femtoverse/internal/stats"
)

// Campaign is a resumable measurement campaign: the production analogue
// runs for months across batch allocations, so each configuration's
// correlators are appended to a write-ahead Journal as they finish and an
// interrupted campaign, replayed by OpenJournal, resumes exactly where it
// stopped, bit-for-bit (configurations are regenerated deterministically
// from the seed).
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
