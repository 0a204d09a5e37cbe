package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// reframe returns data with each record's CRC recomputed over the payload
// its length field names, up to the first length that runs past the end:
// mutations then reach the container decoder and the spec checks behind
// the framing, instead of all dying at the checksum.
func reframe(data []byte) []byte {
	data = slices.Clone(data)
	for off := 8; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > len(data)-off-8 {
			break
		}
		binary.LittleEndian.PutUint32(data[off+4:], crc32.ChecksumIEEE(data[off+8:off+8+n]))
		off += 8 + n
	}
	return data
}

// openAllocCap is what OpenJournal may allocate for a file of n bytes:
// a fixed allowance plus a small multiple of the file, which holds the
// file itself, the decoded containers (their maps and copies) and the
// correlators. A length field that reached an allocation unchecked would
// ask for far more.
func openAllocCap(n int) uint64 { return 1<<20 + 64*uint64(n) }

// FuzzOpenJournal opens arbitrary journal files, reframed so that every
// record passes its CRC, seeded from testdata/campaign_v1.fwal. OpenJournal
// must either fail or return a campaign whose every entry lies inside its
// spec - an index in [0, NConfigs) and both correlators Dims[3] long - and
// must never panic nor allocate past openAllocCap.
func FuzzOpenJournal(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "campaign_v1.fwal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)*2/3])
	f.Add(shapeBeyondData(f))
	path := filepath.Join(f.TempDir(), "campaign.fwal")
	f.Fuzz(func(t *testing.T, data []byte) {
		data = reframe(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j, camp, err := OpenJournal(path, 1)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > openAllocCap(len(data)) {
			t.Fatalf("opening %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if len(camp.C2) != len(camp.CFH) {
			t.Fatalf("%d c2 entries, %d cfh", len(camp.C2), len(camp.CFH))
		}
		for cfg, c2 := range camp.C2 {
			if cfg < 0 || cfg >= camp.Spec.NConfigs || len(c2) != camp.Spec.Dims[3] || len(camp.CFH[cfg]) != camp.Spec.Dims[3] {
				t.Fatalf("entry %d (c2 %d, cfh %d long) outside the spec %+v", cfg, len(c2), len(camp.CFH[cfg]), camp.Spec)
			}
		}
	})
}

// shapeBeyondData is a journal of campaignSpec() with configuration 0
// measured and then a CRC-valid entry for configuration 1 whose c2
// dataset's shape claims one element more than its bytes hold.
func shapeBeyondData(tb testing.TB) []byte {
	tb.Helper()
	spec := campaignSpec()
	c := make([]float64, spec.Dims[3])
	var buf bytes.Buffer
	buf.WriteString(journalMagic)
	buf.Write(binary.LittleEndian.AppendUint32(nil, journalVersion))
	hdr, err := specPayload(spec)
	if err != nil {
		tb.Fatal(err)
	}
	good, err := entryPayload(0, c, c)
	if err != nil {
		tb.Fatal(err)
	}
	bad, err := entryPayload(1, c, c)
	if err != nil {
		tb.Fatal(err)
	}
	// The c2 dataset: its name, the kind byte, a one-extent shape.
	at := bytes.Index(bad, []byte("\x02\x00\x00\x00c2"))
	if at < 0 {
		tb.Fatal("no c2 dataset in the entry")
	}
	binary.LittleEndian.PutUint32(bad[at+6+1+4:], uint32(spec.Dims[3]+1))
	for _, p := range [][]byte{hdr, good, bad} {
		if err := writeRecord(&buf, p); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestOpenJournalStopsAtShapeBeyondData: a CRC-valid entry whose
// correlator's shape names more elements than its data holds made the
// container reader index past the data and panic; it is also a seed of
// FuzzOpenJournal. Replay must stop at it as at any damaged record.
func TestOpenJournalStopsAtShapeBeyondData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.fwal")
	if err := os.WriteFile(path, shapeBeyondData(t), 0o644); err != nil {
		t.Fatal(err)
	}
	j, camp, err := OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if camp.Done() != 1 || camp.C2[0] == nil {
		t.Fatalf("replayed %d entries, want configuration 0 alone", camp.Done())
	}
}
