package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"femtoverse/internal/fault"
)

// Payload codecs for the control-plane frames. Everything is fixed-order
// little-endian - no reflection, no maps - so the bytes are a pure
// function of the values and the welcome/peers/result payloads are as
// reproducible as the halo data itself.

// welcomeConfig is the session configuration the coordinator pushes to
// every worker in MsgWelcome: the worker process needs nothing on its
// command line but the coordinator address.
type welcomeConfig struct {
	NRanks     int
	MaxPayload int
	Plan       fault.Plan
	Timing     Timing
}

func encodeWelcome(cfg welcomeConfig) []byte {
	buf := make([]byte, 0, 2*8+12*8+11*8)
	buf = appendI64(buf, int64(cfg.NRanks))
	buf = appendI64(buf, int64(cfg.MaxPayload))
	p := cfg.Plan
	buf = appendI64(buf, p.Seed)
	buf = appendI64(buf, int64(p.MaxInjections))
	for _, r := range []float64{p.Transient, p.Panic, p.Hang, p.Corrupt, p.DomainLoss, p.Preempt,
		p.NetDrop, p.NetDelay, p.NetPartition, p.NetCorrupt} {
		buf = appendF64(buf, r)
	}
	t := cfg.Timing
	for _, d := range []time.Duration{t.DialTimeout, t.IOTimeout, t.ApplyTimeout, t.GhostTimeout,
		t.HeartbeatEvery, t.RetryBase, t.RetryMax, t.MaxDelay} {
		buf = appendI64(buf, int64(d))
	}
	buf = appendI64(buf, int64(t.HeartbeatMiss))
	buf = appendI64(buf, int64(t.MaxSendAttempts))
	return buf
}

func decodeWelcome(payload []byte) (welcomeConfig, error) {
	r := byteReader{buf: payload}
	var cfg welcomeConfig
	cfg.NRanks = int(r.i64())
	cfg.MaxPayload = int(r.i64())
	cfg.Plan.Seed = r.i64()
	cfg.Plan.MaxInjections = int(r.i64())
	for _, dst := range []*float64{&cfg.Plan.Transient, &cfg.Plan.Panic, &cfg.Plan.Hang,
		&cfg.Plan.Corrupt, &cfg.Plan.DomainLoss, &cfg.Plan.Preempt,
		&cfg.Plan.NetDrop, &cfg.Plan.NetDelay, &cfg.Plan.NetPartition, &cfg.Plan.NetCorrupt} {
		*dst = r.f64()
	}
	for _, dst := range []*time.Duration{&cfg.Timing.DialTimeout, &cfg.Timing.IOTimeout,
		&cfg.Timing.ApplyTimeout, &cfg.Timing.GhostTimeout, &cfg.Timing.HeartbeatEvery,
		&cfg.Timing.RetryBase, &cfg.Timing.RetryMax, &cfg.Timing.MaxDelay} {
		*dst = time.Duration(r.i64())
	}
	cfg.Timing.HeartbeatMiss = int(r.i64())
	cfg.Timing.MaxSendAttempts = int(r.i64())
	if r.err != nil {
		return welcomeConfig{}, fmt.Errorf("wire: welcome payload: %w", r.err)
	}
	return cfg, nil
}

// encodePeerTable renders the epoch's rank -> peer address table;
// addrs is indexed by rank.
func encodePeerTable(addrs []string) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(addrs)))
	for _, a := range addrs {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a)))
		buf = append(buf, a...)
	}
	return buf
}

func decodePeerTable(payload []byte) (map[int]string, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: peer table header", ErrTruncated)
	}
	n := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	out := make(map[int]string, n)
	for r := 0; r < n; r++ {
		if len(payload) < 2 {
			return nil, fmt.Errorf("%w: peer table entry %d", ErrTruncated, r)
		}
		alen := int(binary.LittleEndian.Uint16(payload))
		payload = payload[2:]
		if len(payload) < alen {
			return nil, fmt.Errorf("%w: peer table entry %d address", ErrTruncated, r)
		}
		out[r] = string(payload[:alen])
		payload = payload[alen:]
	}
	return out, nil
}

// A MsgHalo payload is a u16 section count followed by the sections, each
// a (mu u8, dir u8, count u32) header and count complex values: one packed
// boundary face. dir is the sender's face direction, so the receiver
// fills ghost slot 1-dir.

// Halo payload framing costs, exported so a subdomain's halo plan
// (domain.Sub.HaloPeers) can be priced into wire bytes and crosschecked
// against the bytes measured here.
const (
	// HaloHeaderLen is the per-frame section-count prefix.
	HaloHeaderLen = 2
	// SectionHeaderLen is the per-section (mu, dir, length) header.
	SectionHeaderLen = 1 + 1 + 4
)

// appendSectionHeader opens one face section of count complex values.
func appendSectionHeader(buf []byte, mu, dir, count int) []byte {
	buf = append(buf, byte(mu), byte(dir))
	return binary.LittleEndian.AppendUint32(buf, uint32(count))
}

// decodeHaloSections walks a MsgHalo payload and decodes every face
// straight into the slice place(mu, dir, count) returns for it. place
// returns nil to drop a section (a superseded transfer, a slot this rank
// does not have); a destination of any length but count is a protocol
// error. Nothing is allocated and no length read from the payload sizes
// anything: a section can only claim what the frame carries.
func decodeHaloSections(payload []byte, place func(mu, dir, count int) []complex128) error {
	if len(payload) < HaloHeaderLen {
		return fmt.Errorf("%w: halo section count", ErrTruncated)
	}
	n := int(binary.LittleEndian.Uint16(payload))
	payload = payload[HaloHeaderLen:]
	for i := 0; i < n; i++ {
		if len(payload) < SectionHeaderLen {
			return fmt.Errorf("%w: halo section %d header", ErrTruncated, i)
		}
		mu, dir := int(payload[0]), int(payload[1])
		count := int(binary.LittleEndian.Uint32(payload[2:]))
		payload = payload[SectionHeaderLen:]
		if count > len(payload)/16 {
			// A damaged count cannot demand more than the frame carries.
			return fmt.Errorf("%w: halo section %d claims %d values in %d bytes", ErrCorrupt, i, count, len(payload))
		}
		dst := place(mu, dir, count)
		if dst == nil {
			payload = payload[16*count:]
			continue
		}
		if len(dst) != count {
			return fmt.Errorf("%w: halo section %d (mu=%d dir=%d) has %d values, want %d", ErrCorrupt, i, mu, dir, count, len(dst))
		}
		rest, err := DecodeComplex(dst, payload)
		if err != nil {
			return err
		}
		payload = rest
	}
	return nil
}

// workerTimes is where one worker's share of an application went, by
// pipeline step. Measured on the worker's own clock and reported for
// attribution only: nothing reads these to decide anything.
type workerTimes struct {
	Decode    time.Duration // apply payload -> local source field
	PackSend  time.Duration // faces packed into halo frames and written
	Interior  time.Duration // stencil on sites with no ghost dependence
	GhostWait time.Duration // blocked until every ghost face had arrived
	Boundary  time.Duration // stencil on the halo sites
	Encode    time.Duration // local result field -> result payload
}

// resultStats is the per-apply accounting a worker reports with every
// result, successful or not: fault-tolerance tallies and the time split.
type resultStats struct {
	HaloFrames int64 // halo frames sent this apply
	HaloBytes  int64 // their wire bytes, framing included
	Resends    int64 // faulted transmissions retried (all conns)
	Corrupts   int64 // damaged frames detected and discarded
	Times      workerTimes
}

// A MsgResult payload is a failure flag byte, the resultStats as ten
// little-endian i64, and then either the error text (flag 1) or a u32
// count and the local result field (flag 0).
const (
	resultHeaderLen = 1 + 10*8
	// resultEncodeOff locates Times.Encode, the one field measured after
	// the header is written: the worker patches it in once the field is
	// rendered, before the frame is sealed.
	resultEncodeOff = 1 + 9*8
)

// appendResultHeader opens a result payload.
func appendResultHeader(buf []byte, failed bool, st resultStats) []byte {
	flag := byte(0)
	if failed {
		flag = 1
	}
	buf = append(buf, flag)
	t := st.Times
	for _, v := range [...]int64{st.HaloFrames, st.HaloBytes, st.Resends, st.Corrupts,
		int64(t.Decode), int64(t.PackSend), int64(t.Interior), int64(t.GhostWait), int64(t.Boundary), int64(t.Encode)} {
		buf = appendI64(buf, v)
	}
	return buf
}

// decodeResult parses a result payload, decoding a successful result's
// field straight into dst (which must have exactly its length). A failed
// result returns the worker's error text and leaves dst alone.
func decodeResult(payload []byte, dst []complex128) (resultStats, string, error) {
	var st resultStats
	if len(payload) < resultHeaderLen {
		return st, "", fmt.Errorf("%w: result header", ErrTruncated)
	}
	failed := payload[0] == 1
	r := byteReader{buf: payload[1:resultHeaderLen]}
	st.HaloFrames = r.i64()
	st.HaloBytes = r.i64()
	st.Resends = r.i64()
	st.Corrupts = r.i64()
	t := &st.Times
	for _, d := range [...]*time.Duration{&t.Decode, &t.PackSend, &t.Interior, &t.GhostWait, &t.Boundary, &t.Encode} {
		*d = time.Duration(r.i64())
	}
	rest := payload[resultHeaderLen:]
	if failed {
		return st, string(rest), nil
	}
	if len(rest) < 4 {
		return st, "", fmt.Errorf("%w: result length", ErrTruncated)
	}
	n := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if n > len(rest)/16 {
		return st, "", fmt.Errorf("%w: result claims %d values in %d bytes", ErrCorrupt, n, len(rest))
	}
	if n != len(dst) {
		return st, "", fmt.Errorf("%w: result has %d values, want %d", ErrCorrupt, n, len(dst))
	}
	_, err := DecodeComplex(dst, rest)
	return st, "", err
}

// Little-endian append/read helpers.

func appendI64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// byteReader walks a fixed-order payload, latching the first overrun.
type byteReader struct {
	buf []byte
	off int
	err error
}

func (r *byteReader) i64() int64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.err = fmt.Errorf("%w: field at offset %d", ErrTruncated, r.off)
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *byteReader) f64() float64 {
	return math.Float64frombits(uint64(r.i64()))
}
