package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"femtoverse/internal/hio"
	"femtoverse/internal/solver"
)

// Journal is an incremental write-ahead log for a measurement campaign,
// and the one way a campaign persists across allocations. It appends one
// framed record per finished configuration, so a campaign killed
// mid-batch loses at most the in-flight work: OpenJournal replays every
// intact record and resumes from the last good entry. A torn tail - the
// process died inside a write - is detected by the record framing and
// discarded, never propagated; so is a well-framed entry that does not
// fit the spec.
//
// File layout (all integers little-endian):
//
//	"FWAL" | u32 version
//	record*
//
// where each record is
//
//	u32 payloadLen | u32 crc32(payload) | payload
//
// and every payload is an hio-encoded container: the first record holds
// the campaign spec in a "campaign" group (specPayload), and each
// subsequent record holds one configuration's correlators in an "entry"
// group (int64 "config", float64 "c2" and "cfh").
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	spec RealConfig
	// every is the checkpoint cadence: each `every` appended records the
	// journal fsyncs, making them durable. 1 means every record.
	every       int
	sinceSync   int
	checkpoints int
	closed      bool
}

const (
	journalMagic   = "FWAL"
	journalVersion = 1
	// journalMaxRecord bounds a record's payload; anything larger is a
	// corrupt length field, not a real record.
	journalMaxRecord = 1 << 30
)

// writeRecord frames and appends one payload.
func writeRecord(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// specAttr is one float attribute of the header and the spec field it
// holds; specAttrs is the table the encoder and the decoder both walk.
type specAttr struct {
	key string
	val *float64
}

func specAttrs(spec *RealConfig) []specAttr {
	return []specAttr{
		{"beta", &spec.Beta}, {"tol", &spec.Tol}, {"mass", &spec.Params.M},
		{"m5", &spec.Params.M5}, {"b5", &spec.Params.B5}, {"c5", &spec.Params.C5},
	}
}

// specPayload encodes the campaign spec as the header record: a
// "campaign" group with the float parameters as attributes and the
// integer ones as the ten-element int64 dataset "meta". Journals on disk
// hold exactly these bytes (TestJournalHeaderPinned).
func specPayload(spec RealConfig) ([]byte, error) {
	file := hio.New()
	grp, err := file.Root().CreateGroup("campaign")
	if err != nil {
		return nil, err
	}
	meta := []int64{
		int64(spec.Dims[0]), int64(spec.Dims[1]), int64(spec.Dims[2]), int64(spec.Dims[3]),
		int64(spec.Params.Ls), int64(spec.NConfigs), spec.Seed,
		int64(spec.ThermSweeps), int64(spec.GapSweeps), int64(spec.Prec),
	}
	if err := grp.WriteInt64("meta", []int{len(meta)}, meta); err != nil {
		return nil, err
	}
	for _, a := range specAttrs(&spec) {
		grp.SetAttrFloat(a.key, *a.val)
	}
	return file.Encode(), nil
}

// decodeSpec reads the spec back from a decoded header record.
func decodeSpec(file *hio.File) (RealConfig, error) {
	var spec RealConfig
	grp, err := file.Root().Group("campaign")
	if err != nil {
		return spec, err
	}
	_, meta, err := grp.ReadInt64("meta")
	if err != nil {
		return spec, err
	}
	if len(meta) != 10 {
		return spec, fmt.Errorf("core: campaign metadata has %d fields", len(meta))
	}
	spec = RealConfig{
		Dims:        [4]int{int(meta[0]), int(meta[1]), int(meta[2]), int(meta[3])},
		NConfigs:    int(meta[5]),
		Seed:        meta[6],
		ThermSweeps: int(meta[7]),
		GapSweeps:   int(meta[8]),
		Prec:        solver.Precision(meta[9]),
	}
	spec.Params.Ls = int(meta[4])
	for _, a := range specAttrs(&spec) {
		if *a.val, err = grp.AttrFloat(a.key); err != nil {
			return spec, err
		}
	}
	return spec, nil
}

// entryPayload encodes one finished configuration.
func entryPayload(cfg int, c2, cfh []float64) ([]byte, error) {
	file := hio.New()
	grp, err := file.Root().CreateGroup("entry")
	if err != nil {
		return nil, err
	}
	if err := grp.WriteInt64("config", []int{1}, []int64{int64(cfg)}); err != nil {
		return nil, err
	}
	if err := grp.WriteFloat64("c2", []int{len(c2)}, c2); err != nil {
		return nil, err
	}
	if err := grp.WriteFloat64("cfh", []int{len(cfh)}, cfh); err != nil {
		return nil, err
	}
	return file.Encode(), nil
}

// decodeEntry reads one configuration's record back. ok is false unless
// the record names a configuration of spec and carries a full time
// series of each correlator: a CRC-valid record that breaks either rule
// is damage all the same, and replay stops at it.
func decodeEntry(file *hio.File, spec RealConfig) (cfg int, c2, cfh []float64, ok bool) {
	grp, err := file.Root().Group("entry")
	if err != nil {
		return 0, nil, nil, false
	}
	_, idx, err := grp.ReadInt64("config")
	if err != nil || len(idx) != 1 || idx[0] < 0 || idx[0] >= int64(spec.NConfigs) {
		return 0, nil, nil, false
	}
	if _, c2, err = grp.ReadFloat64("c2"); err != nil || len(c2) != spec.Dims[3] {
		return 0, nil, nil, false
	}
	if _, cfh, err = grp.ReadFloat64("cfh"); err != nil || len(cfh) != spec.Dims[3] {
		return 0, nil, nil, false
	}
	return int(idx[0]), c2, cfh, true
}

// CreateJournal starts a fresh journal at path for the spec,
// checkpointing (fsync) every `every` appended records (minimum 1). An
// existing file at path is truncated.
func CreateJournal(path string, spec RealConfig, every int) (*Journal, error) {
	if every < 1 {
		every = 1
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var hdr [8]byte
	copy(hdr[:4], journalMagic)
	binary.LittleEndian.PutUint32(hdr[4:], journalVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close() //femtolint:ignore errdrop best-effort cleanup after a write failure
		return nil, err
	}
	payload, err := specPayload(spec)
	if err != nil {
		f.Close() //femtolint:ignore errdrop best-effort cleanup after an encode failure
		return nil, err
	}
	if err := writeRecord(f, payload); err != nil {
		f.Close() //femtolint:ignore errdrop best-effort cleanup after a write failure
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close() //femtolint:ignore errdrop best-effort cleanup after a sync failure
		return nil, err
	}
	return &Journal{f: f, spec: spec, every: every, checkpoints: 1}, nil
}

// OpenJournal replays a journal and returns it - positioned to append -
// together with the recovered campaign. Recovery is tolerant by design:
// reading stops at the first truncated or corrupt record (a torn write
// from the crash that ended the previous run) or at an entry outside the
// spec (a configuration index out of range, a correlator of the wrong
// length), the tail is discarded, and the campaign resumes from the last
// good entry. A journal whose header record is unreadable is an error; a
// missing file is an error.
func OpenJournal(path string, every int) (*Journal, *Campaign, error) {
	if every < 1 {
		every = 1
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(data) < 8 || string(data[:4]) != journalMagic {
		return nil, nil, fmt.Errorf("core: %s is not a campaign journal", path)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != journalVersion {
		return nil, nil, fmt.Errorf("core: journal version %d, want %d", v, journalVersion)
	}

	var camp *Campaign
	off := 8
	good := off // end of the last intact record
	for record := 0; ; record++ {
		if off+8 > len(data) {
			break // torn or absent frame header
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > journalMaxRecord || off+8+n > len(data) {
			break // corrupt length or torn payload
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break // bit rot or torn write inside the payload
		}
		file, err := hio.Decode(payload)
		if err != nil {
			break // framing intact but the container is not; stop here
		}
		if record == 0 {
			spec, err := decodeSpec(file)
			if err != nil {
				return nil, nil, fmt.Errorf("core: journal header: %w", err)
			}
			camp = NewCampaign(spec)
		} else {
			cfg, c2, cfh, ok := decodeEntry(file, camp.Spec)
			if !ok {
				break // a record that does not fit the spec; stop here
			}
			camp.C2[cfg] = c2
			camp.CFH[cfg] = cfh
		}
		off += 8 + n
		good = off
	}
	if camp == nil {
		return nil, nil, fmt.Errorf("core: journal %s has no intact header record", path)
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	// Drop the torn tail so the next append starts on a record boundary.
	if err := f.Truncate(int64(good)); err != nil {
		f.Close() //femtolint:ignore errdrop best-effort cleanup after a truncate failure
		return nil, nil, err
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close() //femtolint:ignore errdrop best-effort cleanup after a seek failure
		return nil, nil, err
	}
	return &Journal{f: f, spec: camp.Spec, every: every}, camp, nil
}

// Append logs one finished configuration and checkpoints (fsyncs) when
// the cadence is due. Safe for concurrent use - the concurrent campaign
// driver appends from contraction tasks as they finish.
func (j *Journal) Append(cfg int, c2, cfh []float64) error {
	payload, err := entryPayload(cfg, c2, cfh)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("core: append to closed journal")
	}
	if err := writeRecord(j.f, payload); err != nil {
		return err
	}
	j.sinceSync++
	if j.sinceSync >= j.every {
		if err := j.f.Sync(); err != nil {
			return err
		}
		j.sinceSync = 0
		j.checkpoints++
	}
	return nil
}

// Sync makes any unsynced records durable immediately, regardless of the
// checkpoint cadence. The drain path calls it before the allocation ends,
// so a follow-up run resumes with every configuration that finished ahead
// of the wall. Syncing a closed journal is a no-op.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.sinceSync == 0 {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.sinceSync = 0
	j.checkpoints++
	return nil
}

// Checkpoints returns how many durable checkpoints (fsyncs) the journal
// has made, counting the header.
func (j *Journal) Checkpoints() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpoints
}

// Close flushes any unsynced records and closes the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.sinceSync > 0 {
		if err := j.f.Sync(); err != nil {
			j.f.Close() //femtolint:ignore errdrop the sync failure is the error that matters
			return err
		}
		j.sinceSync = 0
		j.checkpoints++
	}
	return j.f.Close()
}
