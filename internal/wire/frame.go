// Package wire is the real multi-process distribution layer: N worker
// processes (or goroutine-hosted workers in tests) exchange Dirac halos
// over stdlib net TCP, coordinated by a Session that implements
// solver.Linear, so the production CGNE drives genuinely remote
// subdomains unchanged. Everything rides a length-prefixed, checksummed
// frame protocol in which a corrupt or truncated frame is a detected
// fault - never a silent wrong answer, the same corruption-is-a-miss
// discipline as internal/cache - and every socket operation runs under a
// deadline with capped, jittered, identity-keyed retry/backoff. A
// coordinator-side heartbeat monitor declares ranks dead after missed
// beats and recovers by restoring the lost rank's subdomain from the
// last atomic internal/hio checkpoint onto a respawned process.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// MsgType enumerates the protocol's frame types.
type MsgType uint8

const (
	// MsgHello is the first frame on a worker->coordinator connection:
	// payload is the worker's peer-listener address.
	MsgHello MsgType = iota + 1
	// MsgWelcome assigns the worker its rank and session parameters.
	MsgWelcome
	// MsgSub ships the rank's subdomain spec (hio-encoded).
	MsgSub
	// MsgPeers broadcasts the epoch's rank -> peer-address table.
	MsgPeers
	// MsgPeersOK acknowledges a completed peer rewiring for an epoch.
	MsgPeersOK
	// MsgApply requests one operator application: payload is the halo
	// plan byte plus the rank's local source field.
	MsgApply
	// MsgResult returns a completed application (local dst field) or a
	// worker-side failure (error string), distinguished by a flag byte.
	MsgResult
	// MsgHalo carries one or more spinor faces between neighbor ranks.
	MsgHalo
	// MsgPeerHello identifies the dialing side of a peer connection.
	MsgPeerHello
	// MsgBeat is the worker's periodic heartbeat.
	MsgBeat
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgSub:
		return "sub"
	case MsgPeers:
		return "peers"
	case MsgPeersOK:
		return "peers-ok"
	case MsgApply:
		return "apply"
	case MsgResult:
		return "result"
	case MsgHalo:
		return "halo"
	case MsgPeerHello:
		return "peer-hello"
	case MsgBeat:
		return "beat"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Frame layout on the wire (little-endian):
//
//	magic   u32  "FWv1"
//	type    u8
//	rank    i32  sender rank (coordinator = -1)
//	xid     u64  transfer id (apply xid, epoch, or beat index by type)
//	paylen  u32  payload byte count
//	payload [paylen]byte
//	crc     u32  CRC-32 (IEEE) over type..payload
//
// The CRC covers everything after the magic, so any bit flipped in
// header fields or payload is detected; a length field damaged into a
// huge value is rejected against the receiver's payload bound before any
// allocation, so a corrupt frame can never demand an unbounded buffer.
const (
	frameMagic = 0x46577631 // "FWv1"
	headerLen  = 4 + 1 + 4 + 8 + 4
	trailerLen = 4
)

// FrameOverhead is the fixed per-frame wire cost beyond the payload.
const FrameOverhead = headerLen + trailerLen

// Frame is one protocol message. A frame handed out by a FrameReader or
// a Conn borrows its Payload from the reader's buffer: the bytes are valid
// only until the next frame is read, so a consumer decodes them into its
// own storage before it reads again.
type Frame struct {
	Type    MsgType
	Rank    int // sender rank; the coordinator sends as -1
	Xid     uint64
	Payload []byte
}

// ErrCorrupt marks a frame rejected by the codec: bad magic, checksum
// mismatch, or an implausible length field. Use errors.Is; the carrier
// connection cannot distinguish who damaged the bytes, only that the
// frame must not be trusted.
var ErrCorrupt = errors.New("wire: corrupt frame")

// ErrTruncated marks a frame cut short by the stream ending mid-frame - a
// detected fault, exactly like corruption.
var ErrTruncated = errors.New("wire: truncated frame")

// BeginFrame opens a frame at the head of buf, which must be empty (a
// reused buffer cut to [:0]): the header, with the length field left for
// FinishFrame. The caller appends the payload and seals the frame.
func BeginFrame(buf []byte, t MsgType, rank int, xid uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, frameMagic)
	buf = append(buf, byte(t))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(rank)))
	buf = binary.LittleEndian.AppendUint64(buf, xid)
	return binary.LittleEndian.AppendUint32(buf, 0)
}

// FinishFrame seals the frame BeginFrame opened at buf[0]: everything
// after the header is the payload, whose length is patched in and whose
// checksum is computed where it lies and appended.
func FinishFrame(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[17:], uint32(len(buf)-headerLen))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[4:]))
}

// frameLen validates the header at the head of data (magic, length bound)
// and returns the frame's full wire length. maxPayload bounds the length
// field before anything is sized by it.
func frameLen(data []byte, maxPayload int) (int, error) {
	if binary.LittleEndian.Uint32(data[0:]) != frameMagic {
		return 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, binary.LittleEndian.Uint32(data[0:]))
	}
	paylen := binary.LittleEndian.Uint32(data[17:])
	if int64(paylen) > int64(maxPayload) {
		return 0, fmt.Errorf("%w: length %d exceeds bound %d", ErrCorrupt, paylen, maxPayload)
	}
	return headerLen + int(paylen) + trailerLen, nil
}

// DecodeFrame parses one frame from the head of data, returning the
// frame and the bytes consumed. The frame's Payload aliases data.
// maxPayload bounds the length field.
func DecodeFrame(data []byte, maxPayload int) (Frame, int, error) {
	if len(data) < headerLen {
		return Frame{}, 0, fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(data), headerLen)
	}
	total, err := frameLen(data, maxPayload)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(data) < total {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes of %d", ErrTruncated, len(data), total)
	}
	body := data[4 : total-trailerLen]
	want := binary.LittleEndian.Uint32(data[total-trailerLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return Frame{}, 0, fmt.Errorf("%w: crc %#x != %#x", ErrCorrupt, got, want)
	}
	f := Frame{
		Type:    MsgType(data[4]),
		Rank:    int(int32(binary.LittleEndian.Uint32(data[5:]))),
		Xid:     binary.LittleEndian.Uint64(data[9:]),
		Payload: data[headerLen : total-trailerLen : total-trailerLen],
	}
	return f, total, nil
}

// FrameReader reads frames from a stream through one reusable buffer: a
// frame is parsed and checksummed where the socket read left it, and the
// Payload it hands out aliases that buffer until the next call to Next.
// The buffer grows to the largest frame seen and never past the payload
// bound, so a steady stream of frames allocates nothing. Not safe for
// concurrent use.
type FrameReader struct {
	r          io.Reader
	maxPayload int
	buf        []byte
	lo, hi     int // buf[lo:hi] is read but not yet consumed
	// poison overwrites every consumed frame on the next call - the test
	// hook that proves no consumer keeps a payload past its validity.
	poison bool
	last   int // start of the frame the previous Next handed out
}

// minReadBuf is the reader's initial buffer: small frames (beats, acks)
// arrive several to a read without the buffer ever growing.
const minReadBuf = 4096

// NewFrameReader reads frames of at most maxPayload payload bytes from r.
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	return &FrameReader{r: r, maxPayload: maxPayload}
}

// Next returns the next frame. Truncation surfaces as ErrTruncated,
// damage as ErrCorrupt (the damaged bytes are consumed; whether the
// stream is still framed is the caller's call - only payload/crc damage
// preserves framing), a stream that ends between frames as io.EOF. A
// deadline error from the underlying reader loses nothing: the partial
// frame stays buffered and the next call resumes it.
func (fr *FrameReader) Next() (Frame, error) {
	if fr.poison {
		for i := fr.last; i < fr.lo; i++ {
			fr.buf[i] = 0xa5
		}
	}
	if err := fr.fill(headerLen); err != nil {
		return Frame{}, err
	}
	total, err := frameLen(fr.buf[fr.lo:fr.hi], fr.maxPayload)
	if err != nil {
		fr.lo += headerLen
		return Frame{}, err
	}
	if err := fr.fill(total); err != nil {
		return Frame{}, err
	}
	f, _, err := DecodeFrame(fr.buf[fr.lo:fr.lo+total], fr.maxPayload)
	fr.last = fr.lo
	fr.lo += total
	return f, err
}

// fill makes at least n unconsumed bytes available at buf[lo:], reading
// as much as the socket offers. The caller has already bounded n.
func (fr *FrameReader) fill(n int) error {
	if fr.lo+n > len(fr.buf) {
		// The frame does not fit behind lo: slide the unconsumed bytes to
		// the front, into a larger buffer if even that is too small.
		to := fr.buf
		if n > len(to) {
			to = make([]byte, max(n, minReadBuf))
		}
		fr.hi = copy(to, fr.buf[fr.lo:fr.hi])
		fr.buf, fr.lo, fr.last = to, 0, 0
	}
	for empty := 0; fr.hi-fr.lo < n; {
		m, err := fr.r.Read(fr.buf[fr.hi:])
		fr.hi += m
		switch {
		case fr.hi-fr.lo >= n:
			return nil
		case errors.Is(err, io.EOF) && (fr.hi > fr.lo || n > headerLen):
			return fmt.Errorf("%w: stream ended mid-frame", ErrTruncated)
		case err != nil:
			return err
		case m > 0:
			empty = 0
		default:
			if empty++; empty == 100 {
				return io.ErrNoProgress
			}
		}
	}
	return nil
}

// Payload encoding helpers: complex128 fields travel as interleaved
// little-endian float64 bit patterns, the byte-exact image of the
// in-memory values, so a field survives the round trip bit-for-bit.

// AppendComplex appends the raw encoding of v to buf in one pass over a
// buffer grown once.
func AppendComplex(buf []byte, v []complex128) []byte {
	n := len(buf)
	buf = slices.Grow(buf, 16*len(v))[:n+16*len(v)]
	out := buf[n:]
	for i, c := range v {
		o := out[i*16 : i*16+16 : i*16+16]
		binary.LittleEndian.PutUint64(o, math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(o[8:], math.Float64bits(imag(c)))
	}
	return buf
}

// DecodeComplex decodes len(dst) complex values from the head of buf
// straight into dst, returning the remainder.
func DecodeComplex(dst []complex128, buf []byte) ([]byte, error) {
	need := 16 * len(dst)
	if len(buf) < need {
		return nil, fmt.Errorf("%w: %d payload bytes for %d complex values", ErrTruncated, len(buf), len(dst))
	}
	for i := range dst {
		o := buf[i*16 : i*16+16 : i*16+16]
		dst[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(o)),
			math.Float64frombits(binary.LittleEndian.Uint64(o[8:])))
	}
	return buf[need:], nil
}
