package figures

import (
	"context"
	"fmt"
	"time"

	"femtoverse/internal/cache"
	"femtoverse/internal/core"
	"femtoverse/internal/obs"
)

func init() {
	register("cachewarm", genCacheWarm)
}

// dataText is a text Result that also carries structured values for the
// -json output mode of cmd/latbench.
type dataText struct {
	text
	data map[string]interface{}
}

func (d dataText) Data() map[string]interface{} { return d.data }

// genCacheWarm measures the content-addressed result cache end to end: a
// cold campaign (every configuration solved, every result stored) versus
// a warm rerun of identical physics over the same store. The warm run's
// correlators are bit-for-bit the cold run's - that is enforced by the
// core tests - so the experiment reports the economics: wall-clock
// speedup and the solver iterations eliminated.
func genCacheWarm(quick bool) (Result, error) {
	spec := core.DefaultRealConfig()
	spec.Dims = [4]int{2, 2, 2, 6}
	spec.NConfigs = 2
	spec.ThermSweeps = 3
	spec.GapSweeps = 1
	if !quick {
		spec.NConfigs = 4
	}
	store, err := cache.New(cache.Config{})
	if err != nil {
		return nil, err
	}

	run := func() (sec float64, iters int64, err error) {
		reg := obs.NewRegistry()
		t0 := time.Now()
		if _, _, err := core.Run(context.Background(), spec,
			core.RunOptions{Workers: 2, Cache: store, Obs: core.ObsConfig{Metrics: reg}}); err != nil {
			return 0, 0, fmt.Errorf("cachewarm: %w", err)
		}
		return time.Since(t0).Seconds(), reg.Counter("core.solver_iterations").Value(), nil
	}

	coldSec, coldIters, err := run()
	if err != nil {
		return nil, err
	}
	warmSec, warmIters, err := run()
	if err != nil {
		return nil, err
	}
	st := store.Stats()
	speedup := 0.0
	if warmSec > 0 {
		speedup = coldSec / warmSec
	}

	body := fmt.Sprintf(
		"run    configs  seconds    solver-iters\n"+
			"cold   %-7d  %-9.3f  %d\n"+
			"warm   %-7d  %-9.3f  %d\n"+
			"speedup %.1fx   cache: %d computes, %d hits, %d misses\n",
		spec.NConfigs, coldSec, coldIters,
		spec.NConfigs, warmSec, warmIters,
		speedup, st.Computes, st.Hits, st.Misses)

	return dataText{
		text: text{
			name:  "cachewarm",
			title: "Content-addressed cache: cold vs warm campaign",
			body:  body,
		},
		data: map[string]interface{}{
			"configs":           spec.NConfigs,
			"cold_seconds":      coldSec,
			"warm_seconds":      warmSec,
			"speedup":           speedup,
			"cold_solver_iters": coldIters,
			"warm_solver_iters": warmIters,
			"cache_computes":    st.Computes,
			"cache_hits":        st.Hits,
			"cache_misses":      st.Misses,
		},
	}, nil
}
