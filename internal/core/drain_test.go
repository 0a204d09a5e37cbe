package core

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	jobrt "femtoverse/internal/runtime"
)

// TestDrainAtEveryBudgetResumesBitForBit generalizes the kill-test to the
// drain path: a budgeted batch is cut off at walls spanning "refuse
// everything" through "finish comfortably", and whatever each allocation
// managed to journal, a follow-up unbudgeted run must resume to a
// campaign bit-for-bit identical to the uninterrupted reference. The
// drain itself must never surface as an error - refused and stranded
// configurations are the next allocation's work.
func TestDrainAtEveryBudgetResumesBitForBit(t *testing.T) {
	ref := reference(t)
	walls := []time.Duration{
		time.Millisecond, // expires before anything finishes
		20 * time.Millisecond,
		50 * time.Millisecond,
		200 * time.Millisecond,
		time.Second,
		time.Minute, // never binds: the drain path must not perturb a clean run
	}
	for _, wall := range walls {
		path := filepath.Join(t.TempDir(), "campaign.fwal")
		j, err := CreateJournal(path, campaignSpec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCampaign(campaignSpec())
		done, rep, err := c.Run(context.Background(), 10, RunOptions{Workers: 2, Journal: j,
			Budget: jobrt.Budget{WallClock: wall, DrainGrace: 50 * time.Millisecond}})
		if err != nil {
			t.Fatalf("wall=%v: drain surfaced as an error: %v", wall, err)
		}
		if rep == nil {
			t.Fatalf("wall=%v: no report", wall)
		}
		if 2*done > rep.Succeeded {
			t.Fatalf("wall=%v: %d configs done but only %d tasks succeeded", wall, done, rep.Succeeded)
		}
		// The allocation ends here - no Close - and the next one resumes
		// from the journal alone.
		j2, resumed, err := OpenJournal(path, 1)
		if err != nil {
			t.Fatalf("wall=%v: reopen: %v", wall, err)
		}
		if resumed.Done() != done {
			t.Fatalf("wall=%v: journal recovered %d configs, batch reported %d", wall, resumed.Done(), done)
		}
		if _, _, err := resumed.Run(context.Background(), 10, RunOptions{Workers: 2, Journal: j2}); err != nil {
			t.Fatalf("wall=%v: resume: %v", wall, err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, ref, resumed)
	}
}

// TestPreemptNoticeDrainsCampaign delivers the external preemption notice
// (the SIGTERM landing path) mid-batch: the batch returns without error,
// the journal is forced durable by the drain even though its checkpoint
// cadence would never fire, and the next allocation resumes bit-for-bit.
func TestPreemptNoticeDrainsCampaign(t *testing.T) {
	ref := reference(t)
	path := filepath.Join(t.TempDir(), "campaign.fwal")
	// Cadence 1000: only the drain-path Sync can make entries durable.
	j, err := CreateJournal(path, campaignSpec(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	preempt := make(chan string, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		preempt <- "SIGTERM"
	}()
	c := NewCampaign(campaignSpec())
	done, rep, err := c.Run(context.Background(), 10, RunOptions{Workers: 2, Journal: j,
		Budget: jobrt.Budget{DrainGrace: 5 * time.Second}, Preempt: preempt})
	if err != nil {
		t.Fatalf("preempted batch surfaced an error: %v", err)
	}
	if done > 0 && rep.JournalCheckpoints == 0 {
		t.Fatal("drain did not checkpoint the journal")
	}

	j2, resumed, err := OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Done() != done {
		t.Fatalf("journal recovered %d configs, batch reported %d", resumed.Done(), done)
	}
	if _, _, err := resumed.Run(context.Background(), 10, RunOptions{Workers: 2, Journal: j2}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, resumed)
}
