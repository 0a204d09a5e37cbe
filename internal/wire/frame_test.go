package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
)

// EncodeFrame renders the frame to a fresh byte slice.
func EncodeFrame(f *Frame) []byte {
	buf := BeginFrame(make([]byte, 0, FrameOverhead+len(f.Payload)), f.Type, f.Rank, f.Xid)
	return FinishFrame(append(buf, f.Payload...))
}

// ReadFrame reads one frame from r through a fresh FrameReader.
func ReadFrame(r io.Reader, maxPayload int) (Frame, error) {
	return NewFrameReader(r, maxPayload).Next()
}

// testFrame returns a representative frame with a non-trivial payload.
func testFrame() *Frame {
	payload := make([]byte, 0, 64)
	payload = AppendComplex(payload, []complex128{
		complex(1.5, -2.25), complex(0, math.Inf(1)), complex(math.Copysign(0, -1), 3e-300),
	})
	return &Frame{Type: MsgHalo, Rank: 3, Xid: 0xdeadbeefcafe, Payload: payload}
}

func TestFrameRoundTrip(t *testing.T) {
	f := testFrame()
	data := EncodeFrame(f)
	if want := FrameOverhead + len(f.Payload); len(data) != want {
		t.Fatalf("encoded %d bytes, want header and trailer plus payload = %d", len(data), want)
	}
	got, n, err := DecodeFrame(data, 1<<20)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(data) {
		t.Fatalf("consumed %d of %d bytes", n, len(data))
	}
	if got.Type != f.Type || got.Rank != f.Rank || got.Xid != f.Xid || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, f)
	}

	var buf bytes.Buffer
	buf.Write(data)
	got2, err := ReadFrame(&buf, 1<<20)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got2.Payload, f.Payload) {
		t.Fatal("stream round trip lost payload bytes")
	}
}

// TestFrameFlipEveryByte is the corruption fuzz of the robustness
// contract: flipping any single byte anywhere in the frame - magic,
// header fields, payload, checksum - must surface as ErrCorrupt or
// ErrTruncated from both the buffer and the stream decoder. Never a
// panic, never a silently different frame.
func TestFrameFlipEveryByte(t *testing.T) {
	f := testFrame()
	clean := EncodeFrame(f)
	for i := range clean {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			data := append([]byte(nil), clean...)
			data[i] ^= flip
			if _, _, err := DecodeFrame(data, 1<<20); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("byte %d ^ %#x: DecodeFrame err = %v, want corrupt/truncated", i, flip, err)
			}
			_, err := ReadFrame(bytes.NewReader(data), 1<<20)
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("byte %d ^ %#x: ReadFrame err = %v, want corrupt/truncated", i, flip, err)
			}
		}
	}
}

// TestFrameTruncateEveryLength cuts the encoded frame at every possible
// length: every prefix must decode to a detected fault, not a panic or a
// short success.
func TestFrameTruncateEveryLength(t *testing.T) {
	f := testFrame()
	clean := EncodeFrame(f)
	for n := 0; n < len(clean); n++ {
		if _, _, err := DecodeFrame(clean[:n], 1<<20); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: DecodeFrame err = %v", n, err)
		}
		_, err := ReadFrame(bytes.NewReader(clean[:n]), 1<<20)
		if err == nil {
			t.Fatalf("truncated to %d bytes: ReadFrame accepted the frame", n)
		}
	}
}

// TestFrameHugeLengthBounded plants a maximal length field and checks the
// decoder rejects it against the payload bound before allocating: a
// corrupt length can never demand an unbounded buffer.
func TestFrameHugeLengthBounded(t *testing.T) {
	f := &Frame{Type: MsgApply, Rank: 0, Xid: 1}
	data := EncodeFrame(f)
	data[17], data[18], data[19], data[20] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := DecodeFrame(data, 1<<16); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: DecodeFrame err = %v, want ErrCorrupt", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ReadFrame(bytes.NewReader(data), 1<<16); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("huge length: ReadFrame err = %v, want ErrCorrupt", err)
		}
	})
	// The exact count is not the contract; staying O(1) rather than
	// O(claimed length) is. A 4 GiB claim must not buy a 4 GiB buffer.
	if allocs > 16 {
		t.Fatalf("huge-length reject cost %v allocs; the bound check must precede allocation", allocs)
	}
}

// TestFrameRandomGarbage throws random byte soup at both decoders: any
// input must produce an error or a valid frame, never a panic.
func TestFrameRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, rng.Intn(256))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		if _, _, err := DecodeFrame(data, 1<<12); err == nil {
			// A random valid frame is astronomically unlikely (it must
			// carry the magic and a matching CRC); treat one as a failure.
			t.Fatalf("trial %d: random garbage decoded as a valid frame", trial)
		}
		if _, err := ReadFrame(bytes.NewReader(data), 1<<12); err == nil {
			t.Fatalf("trial %d: random garbage read as a valid frame", trial)
		}
	}
}

// TestComplexCodecBitExact checks the payload codec preserves every
// float64 bit pattern, including the ones equality would conflate.
func TestComplexCodecBitExact(t *testing.T) {
	vals := []complex128{
		complex(0, 0),
		complex(math.Copysign(0, -1), 0),
		complex(math.Inf(1), math.Inf(-1)),
		complex(math.NaN(), 5e-324),
		complex(1.0/3.0, -math.MaxFloat64),
	}
	buf := AppendComplex(nil, vals)
	got := make([]complex128, len(vals))
	rest, err := DecodeComplex(got, buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	for i := range vals {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(vals[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(vals[i])) {
			t.Fatalf("value %d: %v decoded as %v (bit patterns differ)", i, vals[i], got[i])
		}
	}
	if _, err := DecodeComplex(got, buf[:len(buf)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short buffer: err = %v, want ErrTruncated", err)
	}
}
