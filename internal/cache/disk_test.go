package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// newDiskCache returns a cache on dir with a tiny memory tier budget so
// reads are forced through the disk path, plus the entry's value.
func newDiskCache(t testing.TB, dir string) *Cache {
	t.Helper()
	c, err := New(Config{MemBytes: 1, Dir: dir}) // budget 1: nothing fits in memory
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDiskTierTruncateAtEveryByte is the FWAL-style torn-write sweep: a
// cache entry truncated at every possible byte boundary - the on-disk
// state a non-atomic writer could leave after a kill - must read as a
// miss, never as an error, a panic, or a wrong value; and a subsequent
// Put must atomically repair the entry.
func TestDiskTierTruncateAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	k := testKey("torn")
	val := []byte("the correlators of configuration 3")

	w := newDiskCache(t, dir)
	if err := w.Put(k, val); err != nil {
		t.Fatal(err)
	}
	path := w.diskPath(k)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(intact); cut++ {
		if err := os.WriteFile(path, intact[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c := newDiskCache(t, dir)
		if v, ok := c.Get(k); ok {
			t.Fatalf("cut=%d: truncated entry served as a hit (%q)", cut, v)
		}
		if cut > 0 {
			// A non-empty torn file must be accounted as corrupt.
			if st := c.Stats(); st.CorruptDropped != 1 {
				t.Fatalf("cut=%d: stats %+v", cut, c.Stats())
			}
		}
	}

	// The next Put repairs the entry in place, atomically.
	c := newDiskCache(t, dir)
	if err := c.Put(k, val); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("repair failed: %q, %v", got, ok)
	}
}

// TestDiskTierFlipAtEveryByte sweeps single-byte corruption over the
// whole entry: bit rot anywhere - header, key attribute, CRC, payload -
// must surface as a miss, never as a wrong value.
func TestDiskTierFlipAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	k := testKey("rot")
	val := []byte("irreplaceable physics")

	w := newDiskCache(t, dir)
	if err := w.Put(k, val); err != nil {
		t.Fatal(err)
	}
	path := w.diskPath(k)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for pos := 0; pos < len(intact); pos++ {
		bad := append([]byte(nil), intact...)
		bad[pos] ^= 0xFF
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		c := newDiskCache(t, dir)
		if v, ok := c.Get(k); ok {
			// A flipped byte that still decodes must at least return the
			// exact original value (a flip in padding cannot exist in this
			// format, but the guarantee that matters is value integrity).
			if !bytes.Equal(v, val) {
				t.Fatalf("pos=%d: corrupt entry served wrong value %q", pos, v)
			}
		}
	}
}

// TestDiskTierMisfiledEntryIsMiss: an entry stored under the wrong hash
// (a collision, an operator copying files around) fails the canonical-
// key check and reads as a miss.
func TestDiskTierMisfiledEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	ka := testKey("a")
	kb := testKey("b")

	c := newDiskCache(t, dir)
	if err := c.Put(ka, []byte("value of a")); err != nil {
		t.Fatal(err)
	}
	// Misfile: a's entry at b's path.
	data, err := os.ReadFile(c.diskPath(ka))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(c.diskPath(kb)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.diskPath(kb), data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := newDiskCache(t, dir)
	if v, ok := fresh.Get(kb); ok {
		t.Fatalf("misfiled entry served as a hit for the wrong key: %q", v)
	}
	if st := fresh.Stats(); st.CorruptDropped != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The rightful key is untouched.
	if v, ok := fresh.Get(ka); !ok || string(v) != "value of a" {
		t.Fatalf("collateral damage on the rightful key: %q, %v", v, ok)
	}
}

// TestDiskTierCorruptEntryRecomputed: end to end through GetOrCompute, a
// corrupt disk entry triggers exactly one recompute and the repaired
// entry serves warm afterwards.
func TestDiskTierCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	k := testKey("heal")
	val := []byte("recomputable")

	w := newDiskCache(t, dir)
	if err := w.Put(k, val); err != nil {
		t.Fatal(err)
	}
	path := w.diskPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c := newDiskCache(t, dir)
	computes := 0
	v, cached, err := c.GetOrCompute(k, func() ([]byte, error) {
		computes++
		return val, nil
	})
	if err != nil || cached || !bytes.Equal(v, val) || computes != 1 {
		t.Fatalf("recompute: %q cached=%v err=%v computes=%d", v, cached, err, computes)
	}
	// Healed on disk: a fresh instance hits.
	fresh := newDiskCache(t, dir)
	if v, ok := fresh.Get(k); !ok || !bytes.Equal(v, val) {
		t.Fatalf("entry not healed: %q, %v", v, ok)
	}
}

// TestDiskWriteIsAtomic: no partially-written entry is ever visible at
// the entry path; hio.Save's temp+fsync+rename guarantees it, and the
// cache must not leave stray readable garbage at the final name even
// when the value is empty or the directory pre-exists.
func TestDiskWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	c := newDiskCache(t, dir)
	k := testKey("atomic")
	if err := c.Put(k, nil); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get(k)
	if !ok || len(v) != 0 {
		t.Fatalf("empty value round-trip: %q, %v", v, ok)
	}
}
