package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"femtoverse/internal/lattice"
)

// fuzzMaxPayload is the payload bound the fuzz readers enforce: small, so
// the fuzzer finds length fields on either side of it.
const fuzzMaxPayload = 1 << 12

// readAll drains a stream through a FrameReader until its first error,
// returning the accepted frames re-encoded back to back.
func readAll(t *testing.T, r io.Reader) ([]byte, error) {
	fr := NewFrameReader(r, fuzzMaxPayload)
	var accepted []byte
	for {
		f, err := fr.Next()
		if len(fr.buf) > max(minReadBuf, FrameOverhead+fuzzMaxPayload) {
			t.Fatalf("read buffer grew to %d bytes, past the payload bound", len(fr.buf))
		}
		if err != nil {
			return accepted, err
		}
		if len(f.Payload) > fuzzMaxPayload {
			t.Fatalf("accepted a %d-byte payload, bound %d", len(f.Payload), fuzzMaxPayload)
		}
		accepted = append(accepted, EncodeFrame(&f)...)
	}
}

// FuzzReadFrame feeds arbitrary bytes through the reusable-buffer reader:
// it must never panic, never size its buffer past the payload bound,
// accept only frames that re-encode to exactly the bytes they were read
// from, end in an error that says why, and do all of that identically
// however the stream is chopped into reads.
func FuzzReadFrame(f *testing.F) {
	frame := EncodeFrame(testFrame())
	f.Add(frame)
	f.Add(append(append([]byte(nil), frame...), frame...))
	f.Add(frame[:len(frame)-3])
	f.Add(EncodeFrame(&Frame{Type: MsgBeat, Rank: 2, Xid: 9}))
	f.Fuzz(func(t *testing.T, data []byte) {
		accepted, err := readAll(t, bytes.NewReader(data))
		if !bytes.HasPrefix(data, accepted) {
			t.Fatalf("accepted frames re-encode to %x, not a prefix of the input %x", accepted, data)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("stream ended with %v, want EOF, truncation or corruption", err)
		}
		if errors.Is(err, io.EOF) && len(accepted) != len(data) {
			t.Fatalf("clean EOF after %d of %d bytes", len(accepted), len(data))
		}
		byByte, errByByte := readAll(t, iotest.OneByteReader(bytes.NewReader(data)))
		if !bytes.Equal(byByte, accepted) || err.Error() != errByByte.Error() {
			t.Fatalf("one byte at a time: %d bytes accepted then %v; whole: %d bytes then %v", len(byByte), errByByte, len(accepted), err)
		}
	})
}

// FuzzDecodePayloads drives the two decoders that write into storage the
// frame does not own - halo sections into ghost staging, a result into a
// subdomain field - with hostile counts and lengths. The destinations
// are fixed, as in the worker and the coordinator: nothing the payload
// says may size, move or overrun them, and a result that is accepted
// re-encodes to the bytes it came from.
func FuzzDecodePayloads(f *testing.F) {
	const faceLen, fieldLen = 24, 36
	face := make([]complex128, faceLen)
	for i := range face {
		face[i] = complex(float64(i), -float64(i))
	}
	halo := binary.LittleEndian.AppendUint16(nil, 2)
	halo = AppendComplex(appendSectionHeader(halo, 3, 0, faceLen), face)
	halo = AppendComplex(appendSectionHeader(halo, 3, 1, faceLen), face)
	f.Add(halo)
	result := appendResultHeader(nil, false, resultStats{HaloFrames: 4, HaloBytes: 1 << 20})
	result = binary.LittleEndian.AppendUint32(result, fieldLen)
	f.Add(AppendComplex(result, make([]complex128, fieldLen)))
	f.Add(append(appendResultHeader(nil, true, resultStats{}), "ghost not received"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var ghosts [lattice.NDim][2][]complex128
		for mu := range ghosts {
			for dir := range ghosts[mu] {
				ghosts[mu][dir] = make([]complex128, faceLen, faceLen+1)
			}
		}
		err := decodeHaloSections(data, func(mu, dir, count int) []complex128 {
			if mu >= lattice.NDim || dir > 1 {
				return nil
			}
			return ghosts[mu][dir]
		})
		if err != nil && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("halo decode failed with %v, want truncation or corruption", err)
		}

		dst := make([]complex128, fieldLen)
		st, errstr, err := decodeResult(data, dst)
		switch {
		case err != nil:
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("result decode failed with %v, want truncation or corruption", err)
			}
		case data[0] == 1:
			if errstr != string(data[resultHeaderLen:]) {
				t.Fatalf("failure text %q, payload carries %q", errstr, data[resultHeaderLen:])
			}
		default:
			again := binary.LittleEndian.AppendUint32(appendResultHeader(nil, false, st), fieldLen)
			again = AppendComplex(again, dst)
			// Any flag but 1 reads as success, so compare past it.
			if !bytes.Equal(data[1:len(again)], again[1:]) {
				t.Fatalf("accepted result re-encodes to %x, payload is %x", again, data)
			}
		}
	})
}
