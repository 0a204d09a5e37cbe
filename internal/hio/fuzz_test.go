package hio_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"femtoverse/internal/cache"
	"femtoverse/internal/domain"
	"femtoverse/internal/gauge"
	"femtoverse/internal/hio"
	"femtoverse/internal/lattice"
	"femtoverse/internal/wire"
)

// decodeAllocCap is what Decode may allocate for n bytes of input: a
// fixed allowance plus a multiple of the input, which holds the copied
// payloads and a group's maps for every 16 bytes a group header takes
// (a nest of empty groups, the costliest input per byte, takes 25 bytes
// a byte). A length or count field that reached an allocation unchecked
// would ask for far more.
func decodeAllocCap(n int) uint64 { return 1<<16 + 64*uint64(n) }

// decodeSeeds are the containers the product writes through hio: a cache
// value (two correlator series) and a wire subdomain spec, the MsgSub
// payload and one rank of a checkpoint.
func decodeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	val, err := cache.EncodeFloatSeries([]float64{1, -0.5, 3e-9}, []float64{2})
	if err != nil {
		tb.Fatal(err)
	}
	u := gauge.NewWeak(lattice.MustNew(2, 2, 2, 4), 3, 0.3)
	specs, err := domain.BuildSpecs(u, [lattice.NDim]int{1, 1, 1, 2}, 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := wire.EncodeSpec(&specs[1])
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{val, spec}
}

// FuzzDecode decodes arbitrary bytes, seeded from the containers the cache
// and the wire layer write. Decode must either fail or return a file
// whose encoding decodes again to a file of the same encoding - the
// encoding is canonical, so that is the same file - and must never panic
// nor allocate past decodeAllocCap.
func FuzzDecode(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
		f.Add(s[:len(s)/2])
	}
	f.Add(nestedGroups(64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		file, err := hio.Decode(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > decodeAllocCap(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		enc := file.Encode()
		again, err := hio.Decode(enc)
		if err != nil {
			t.Fatalf("the encoding of a decoded file does not decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("a decoded file re-encodes to a different file")
		}
	})
}

// nestedGroups is a container of depth groups, each the only child of the
// one before: the input that costs Decode the most allocation per byte.
func nestedGroups(depth int) []byte {
	b := append([]byte("FHIO"), 1, 0, 0, 0)
	for i := 0; i < depth; i++ {
		// Empty name, no attributes, no datasets, one child.
		b = binary.LittleEndian.AppendUint32(b, 0)
		b = binary.LittleEndian.AppendUint32(b, 0)
		b = binary.LittleEndian.AppendUint32(b, 0)
		b = binary.LittleEndian.AppendUint32(b, 1)
	}
	return append(b, make([]byte, 16)...) // the innermost group, with no child
}

// TestDecodeNestedGroupsWithinCap holds the costliest input per byte, a
// deep nest of empty groups, to decodeAllocCap and to the round trip.
func TestDecodeNestedGroupsWithinCap(t *testing.T) {
	data := nestedGroups(4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	file, err := hio.Decode(data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > decodeAllocCap(len(data)) {
		t.Fatalf("decoding %d bytes allocated %d, cap %d", len(data), got, decodeAllocCap(len(data)))
	}
	if !bytes.Equal(file.Encode(), data) {
		t.Fatal("the nest does not re-encode to its own bytes")
	}
}
