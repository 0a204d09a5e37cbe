// Fixture for lockhold's file-I/O scoping: the same package is loaded
// once as "fixture/internal/cache" (where a file write under a mutex
// is the convoy bug) and once as "fixture/journalish" (where the
// single-writer-under-mutex design is legitimate and the analyzer must
// stay silent — RunExpectNone disregards the want below).
package fixture

import (
	"os"
	"sync"
)

type store struct {
	mu   sync.Mutex
	path string
}

func (s *store) persist(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.WriteFile(s.path, data, 0o644) // want "file I/O .os.WriteFile. while holding s.mu"
}
