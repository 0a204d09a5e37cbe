package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
)

func campaignSpec() RealConfig {
	cfg := DefaultRealConfig()
	cfg.Dims = [4]int{2, 2, 2, 6}
	cfg.NConfigs = 4
	cfg.ThermSweeps = 3
	cfg.GapSweeps = 1
	return cfg
}

var refCampaign struct {
	once sync.Once
	camp *Campaign
	err  error
}

// reference returns the campaign every equivalence test is held to:
// campaignSpec() run whole, sequentially, with nothing attached. It is
// computed once per test binary and must be treated as read-only.
func reference(t *testing.T) *Campaign {
	t.Helper()
	refCampaign.once.Do(func() {
		c := NewCampaign(campaignSpec())
		n, rep, err := c.Run(context.Background(), 10, RunOptions{})
		if err != nil || n != 4 || rep != nil || !c.Complete() {
			refCampaign.err = fmt.Errorf("reference run: done %d, report %v, err %v", n, rep, err)
		}
		refCampaign.camp = c
	})
	if refCampaign.err != nil {
		t.Fatal(refCampaign.err)
	}
	return refCampaign.camp
}

// requireIdentical asserts two campaigns hold the same finished
// configurations with bit-for-bit the same correlators.
func requireIdentical(t *testing.T, ref, got *Campaign) {
	t.Helper()
	if got.Done() != ref.Done() {
		t.Fatalf("done: %d vs %d", got.Done(), ref.Done())
	}
	if g, r := got.Fingerprint(), ref.Fingerprint(); g != r {
		t.Fatalf("correlators differ: fingerprint %.12s vs %.12s", g, r)
	}
}

func TestCampaignAnalysis(t *testing.T) {
	geff, gerr, err := reference(t).Geff()
	if err != nil {
		t.Fatal(err)
	}
	if len(geff) != 5 || len(gerr) != 5 {
		t.Fatalf("geff length %d", len(geff))
	}
	for i, v := range geff {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("geff[%d] = %v", i, v)
		}
	}
}

func TestCampaignGeffNeedsTwoConfigs(t *testing.T) {
	c := NewCampaign(campaignSpec())
	if _, _, err := c.Geff(); err == nil {
		t.Fatal("empty campaign analysis accepted")
	}
	if n, _, err := c.Run(context.Background(), 0, RunOptions{}); err != nil || n != 0 {
		t.Fatalf("zero batch: %d %v", n, err)
	}
}

// TestBoundedRunNeedsPool: admission control and drain live in the job
// pool, so the inline executor refuses a budget instead of ignoring it.
func TestBoundedRunNeedsPool(t *testing.T) {
	c := NewCampaign(campaignSpec())
	if _, _, err := c.Run(context.Background(), 1, RunOptions{Preempt: make(chan string)}); err == nil {
		t.Fatal("preemption channel accepted at Workers 0")
	}
	if c.Done() != 0 {
		t.Fatalf("refused run measured %d configurations", c.Done())
	}
}
