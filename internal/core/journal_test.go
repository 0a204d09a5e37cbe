package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// runJournaled measures up to n configurations on the calling goroutine
// with j attached.
func runJournaled(c *Campaign, n int, j *Journal) (int, error) {
	done, _, err := c.Run(context.Background(), n, RunOptions{Journal: j})
	return done, err
}

// TestJournalKillAtEveryConfigResumesBitForBit kills the campaign after
// every possible number of completed configurations (0 through all) and
// resumes each from the journal alone; every resumed campaign must be
// bit-for-bit identical to the uninterrupted reference.
func TestJournalKillAtEveryConfigResumesBitForBit(t *testing.T) {
	ref := reference(t)
	for kill := 0; kill <= ref.Spec.NConfigs; kill++ {
		path := filepath.Join(t.TempDir(), "campaign.fwal")
		j, err := CreateJournal(path, campaignSpec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCampaign(campaignSpec())
		if kill > 0 {
			if n, err := runJournaled(c, kill, j); err != nil || n != kill {
				t.Fatalf("kill=%d: first batch %d, %v", kill, n, err)
			}
		}
		// The process dies here: no Close, no final sync. Each record was
		// written on append, so the journal holds exactly `kill` entries.
		j2, resumed, err := OpenJournal(path, 1)
		if err != nil {
			t.Fatalf("kill=%d: reopen: %v", kill, err)
		}
		if resumed.Done() != kill {
			t.Fatalf("kill=%d: recovered %d entries", kill, resumed.Done())
		}
		if _, err := runJournaled(resumed, 10, j2); err != nil {
			t.Fatalf("kill=%d: resume: %v", kill, err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, ref, resumed)

		// The journal now holds the whole campaign: a second recovery
		// needs no recomputation at all.
		j3, full, err := OpenJournal(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := j3.Close(); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, ref, full)
	}
}

// TestJournalTruncationSweep chops the finished journal at every byte
// offset - every possible torn write - and requires each prefix to open
// as a clean "resume from the last good entry": no error once the header
// record is intact, a recovered-entry count that equals the number of
// fully contained records, and never a partially applied record.
func TestJournalTruncationSweep(t *testing.T) {
	ref := reference(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.fwal")
	j, err := CreateJournal(path, campaignSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCampaign(campaignSpec())
	if n, err := runJournaled(c, 10, j); err != nil || n != 4 {
		t.Fatalf("journaled run: %d, %v", n, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Walk the frame structure to find each record's end offset.
	var recordEnds []int
	off := 8
	for off+8 <= len(data) {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 |
			uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 8 + n
		recordEnds = append(recordEnds, off)
	}
	if len(recordEnds) != 5 || recordEnds[4] != len(data) {
		t.Fatalf("journal has %d records over %d bytes; want spec + 4 entries", len(recordEnds), len(data))
	}

	entriesAt := func(cut int) int {
		n := 0
		for _, end := range recordEnds[1:] {
			if end <= cut {
				n++
			}
		}
		return n
	}
	cutPath := filepath.Join(dir, "cut.fwal")
	maxSeen := -1
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, resumed, err := OpenJournal(cutPath, 1)
		if cut < recordEnds[0] {
			// The spec record itself is torn: recovery is impossible and
			// must say so rather than fabricate a campaign.
			if err == nil {
				j2.Close() //femtolint:ignore errdrop closing a journal that should not exist
				t.Fatalf("cut=%d: torn header opened without error", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		want := entriesAt(cut)
		if resumed.Done() != want {
			t.Fatalf("cut=%d: recovered %d entries, want %d", cut, resumed.Done(), want)
		}
		// Recovered entries are exact, not merely counted.
		for i := 0; i < want; i++ {
			for k := range ref.C2[i] {
				if resumed.C2[i][k] != ref.C2[i][k] || resumed.CFH[i][k] != ref.CFH[i][k] {
					t.Fatalf("cut=%d: recovered config %d differs", cut, i)
				}
			}
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if want > maxSeen {
			maxSeen = want
		}
	}
	if maxSeen != 4 {
		t.Fatalf("sweep never recovered the full journal (max %d)", maxSeen)
	}

	// One full resume from a mid-record tear: truncate into record 3's
	// payload, reopen, finish the campaign, compare bit-for-bit. The
	// reopen truncates the torn tail, so the resumed journal must also
	// replay completely afterwards.
	cut := recordEnds[2] + 5
	if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	j3, resumed, err := OpenJournal(cutPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Done() != 2 {
		t.Fatalf("recovered %d entries from a tear inside record 3", resumed.Done())
	}
	if _, err := runJournaled(resumed, 10, j3); err != nil {
		t.Fatal(err)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, resumed)
	_, replayed, err := OpenJournal(cutPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, replayed)
}

// TestJournalCorruptRecordStopsReplay flips one byte inside an entry's
// payload: the CRC must reject the record, replay must stop at the last
// good entry before it, and the resume must still complete bit-for-bit.
func TestJournalCorruptRecordStopsReplay(t *testing.T) {
	ref := reference(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.fwal")
	j, err := CreateJournal(path, campaignSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCampaign(campaignSpec())
	if n, err := runJournaled(c, 10, j); err != nil || n != 4 {
		t.Fatalf("journaled run: %d, %v", n, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find record 3 (second entry) and flip a payload byte.
	off := 8
	for r := 0; r < 2; r++ {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 |
			uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 8 + n
	}
	data[off+8+3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, resumed, err := OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Done() != 1 {
		t.Fatalf("recovered %d entries past a corrupt record", resumed.Done())
	}
	if _, err := runJournaled(resumed, 10, j2); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, resumed)
}

// TestJournalCheckpointCadence: with cadence 3, eleven appends fsync at
// 3, 6, 9 and on Close - the counter reflects durability points, not
// record counts.
func TestJournalCheckpointCadence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cadence.fwal")
	j, err := CreateJournal(path, campaignSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if j.Checkpoints() != 1 {
		t.Fatalf("fresh journal checkpoints %d, want 1 (the header)", j.Checkpoints())
	}
	for i := 0; i < 11; i++ {
		if err := j.Append(i, []float64{1}, []float64{2}); err != nil {
			t.Fatal(err)
		}
	}
	if j.Checkpoints() != 1+3 {
		t.Fatalf("checkpoints %d after 11 appends at cadence 3, want 4", j.Checkpoints())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Checkpoints() != 5 {
		t.Fatalf("checkpoints %d after close, want 5 (final flush)", j.Checkpoints())
	}
	if err := j.Append(99, nil, nil); err == nil {
		t.Fatal("append to closed journal accepted")
	}
}

// TestJournalReplayStopsAtEntryOutsideSpec: a record can pass the CRC and
// still not belong to the campaign - a configuration index outside
// [0, NConfigs), or a correlator shorter than the time extent. Replay must
// stop there exactly as at a torn record: keep the entries before it,
// drop it and everything after, and resume to the reference. Trusting
// such a record would count a configuration that was never measured, so
// the campaign would report itself complete over the wrong ensemble.
func TestJournalReplayStopsAtEntryOutsideSpec(t *testing.T) {
	ref := reference(t)
	short := ref.C2[2][:len(ref.C2[2])-1]
	for _, c := range []struct {
		name    string
		cfg     int
		c2, cfh []float64
	}{
		{"index out of range", 7, ref.C2[2], ref.CFH[2]},
		{"negative index", -1, ref.C2[2], ref.CFH[2]},
		{"short c2", 2, short, ref.CFH[2]},
		{"short cfh", 2, ref.C2[2], ref.CFH[2][:1]},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.fwal")
			j, err := CreateJournal(path, campaignSpec(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{0, 1} {
				if err := j.Append(i, ref.C2[i], ref.CFH[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Append(c.cfg, c.c2, c.cfh); err != nil {
				t.Fatal(err)
			}
			// A good record behind the bad one is not replayed either:
			// nothing past the first damage is trusted.
			if err := j.Append(3, ref.C2[3], ref.CFH[3]); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			j2, resumed, err := OpenJournal(path, 1)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Done() != 2 || resumed.Complete() {
				t.Fatalf("replayed %d entries (complete %v), want the 2 before the bad record",
					resumed.Done(), resumed.Complete())
			}
			if _, err := runJournaled(resumed, 10, j2); err != nil {
				t.Fatal(err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, ref, resumed)
			_, replayed, err := OpenJournal(path, 1)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, ref, replayed)
		})
	}
}

// TestJournalFromEarlierBuildOpens: testdata/campaign_v1.fwal was written
// by an earlier build's CreateJournal and Append - campaignSpec() with
// configurations 0 and 1 measured. It must open to that spec and those
// entries, bit for bit, and resume to the reference.
func TestJournalFromEarlierBuildOpens(t *testing.T) {
	ref := reference(t)
	data, err := os.ReadFile(filepath.Join("testdata", "campaign_v1.fwal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.fwal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, camp, err := OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Spec != campaignSpec() {
		t.Fatalf("spec %+v, want %+v", camp.Spec, campaignSpec())
	}
	if camp.Done() != 2 {
		t.Fatalf("replayed %d entries, want 2", camp.Done())
	}
	for i := 0; i < 2; i++ {
		for k := range ref.C2[i] {
			if camp.C2[i][k] != ref.C2[i][k] || camp.CFH[i][k] != ref.CFH[i][k] {
				t.Fatalf("config %d differs from the reference at t=%d", i, k)
			}
		}
	}
	if _, err := runJournaled(camp, 10, j); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, camp)
}
