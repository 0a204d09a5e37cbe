package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDiskEntry reads arbitrary bytes as a key's disk entry, seeded from
// the entries Put writes for a campaign value (two correlator series) and
// for bytes that are no value blob. Get on a cache with no memory tier
// must either miss and count the entry in CorruptDropped, or return a
// value and count nothing; a value DecodeFloatSeries accepts must
// re-encode to the same bytes. Neither may panic.
func FuzzDiskEntry(f *testing.F) {
	dir := f.TempDir()
	k := testKey("fuzz")
	path := newDiskCache(f, dir).diskPath(k)
	val, err := EncodeFloatSeries([]float64{1, -0.5, 3e-9}, []float64{2})
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range [][]byte{val, []byte("not a value blob")} {
		if err := newDiskCache(f, dir).Put(k, v); err != nil {
			f.Fatal(err)
		}
		entry, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(entry)
		f.Add(entry[:len(entry)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := newDiskCache(t, dir)
		v, ok := c.Get(k)
		if st := c.Stats(); !ok && st.CorruptDropped != 1 || ok && st.CorruptDropped != 0 {
			t.Fatalf("hit %v with %d entries dropped as corrupt", ok, st.CorruptDropped)
		}
		if !ok {
			return
		}
		series, err := DecodeFloatSeries(v, -1)
		if err != nil {
			return
		}
		enc, err := EncodeFloatSeries(series...)
		if err != nil {
			t.Fatalf("decoded series do not encode: %v", err)
		}
		if !bytes.Equal(enc, v) {
			t.Fatalf("a decoded value re-encodes to other bytes:\n%x\n%x", v, enc)
		}
	})
}
