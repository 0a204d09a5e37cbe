package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"femtoverse/internal/hio"
)

// TestJournalHeaderPinned holds the journal's header record to the exact
// bytes earlier builds wrote. A journal, or a serve state directory, left
// behind by an older binary must keep opening, so the spec codec may be
// reorganised but its encoding may not move by a byte.
func TestJournalHeaderPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		spec RealConfig
		want string
	}{
		{"campaignSpec", campaignSpec(), "1401ef1332dc43dec859142855762d3aa2e7704bbc4774d5e5ece26afe67268f"},
		{"DefaultRealConfig", DefaultRealConfig(), "743188ae2eb4896f9e674434466a58f7d2f994e9277a36ee4e56ecc65dab31df"},
	} {
		payload, err := specPayload(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != c.want {
			t.Errorf("%s: header payload sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// TestOpenJournalRejectsHeaderWithoutSpec: a header record that frames
// and decodes cleanly but holds no campaign group is not a journal to
// resume - OpenJournal says so rather than fabricate a spec.
func TestOpenJournalRejectsHeaderWithoutSpec(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(journalMagic)
	buf.Write([]byte{journalVersion, 0, 0, 0})
	if err := writeRecord(&buf, hio.New().Encode()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nospec.fwal")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if j, _, err := OpenJournal(path, 1); err == nil {
		j.Close() //femtolint:ignore errdrop closing a journal that should not exist
		t.Fatal("header without a campaign group accepted")
	}
}
