// Package cache is the content-addressed result store that dedupes
// identical solves across campaigns, tenants, and restarts. The paper's
// economics rest on amortization - one extra solve per source serves
// every Feynman-Hellmann insertion - and at service scale the dominant
// waste is re-running solves that are fully determined by their inputs:
// a propagator is a pure function of (ensemble, configuration, source,
// solver parameters, mass, precision policy). This package keys results
// by a canonical stable hash of that identity (Key), stores them in two
// tiers - an in-memory LRU under a byte budget and an hio-backed disk
// tier using the atomic temp+fsync+rename Save - and singleflights cold
// keys so N concurrent requests perform exactly one solve.
//
// The correctness bar is the repository's: because PR 5 made solves
// bitwise deterministic at any worker count, a cached result is
// bit-for-bit the result a recompute would produce, and the campaign
// tests enforce exactly that.
package cache

import (
	"container/list"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"femtoverse/internal/hio"
	"femtoverse/internal/obs"
)

// Config configures a Cache. The zero value is a memory-only cache with
// the default byte budget and no observability.
type Config struct {
	// MemBytes is the in-memory tier's budget in bytes; <= 0 selects the
	// default (64 MiB). The budget bounds the sum of cached value sizes
	// plus a fixed per-entry overhead and is never exceeded, even
	// transiently: Put evicts before it publishes.
	MemBytes int64
	// Dir, when non-empty, enables the disk tier rooted there. Entries
	// are one file each, named by the key hash, written with the atomic
	// temp+fsync+rename idiom, so a crash mid-write leaves either no
	// entry or a complete one - and a torn or bit-rotted entry reads as
	// a miss, never as an error or a wrong value.
	Dir string
	// Metrics, when non-nil, receives hit/miss/eviction/byte/coalesce
	// counters under the "cache." prefix.
	Metrics *obs.Registry
}

// DefaultMemBytes is the memory-tier budget when Config.MemBytes is
// unset.
const DefaultMemBytes = 64 << 20

// memEntryOverhead approximates the per-entry bookkeeping cost charged
// against the byte budget on top of the value payload.
const memEntryOverhead = 160

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	// Hits counts Gets served from either tier; MemHits and DiskHits
	// split them by the tier that answered.
	Hits, MemHits, DiskHits int64
	// Misses counts Gets answered by neither tier, including disk
	// entries rejected as torn, corrupt, or misfiled.
	Misses int64
	// CorruptDropped counts disk entries that failed decoding or
	// identity verification and were treated as misses.
	CorruptDropped int64
	// Puts counts stored values; PutErrors counts disk-tier store
	// failures (the value remains served from memory).
	Puts, PutErrors int64
	// Evictions counts memory-tier LRU evictions; Oversize counts values
	// too large for the memory budget, which bypass that tier entirely.
	Evictions, Oversize int64
	// Coalesced counts callers whose cold request was served by another
	// caller's compute instead of a solve of their own: it was in flight
	// when they joined it, or landed between their miss and their turn.
	Coalesced int64
	// Computes counts cold-path executions GetOrCompute actually ran.
	Computes int64
	// MemBytes and MemEntries describe the memory tier right now.
	MemBytes   int64
	MemEntries int
}

// String renders the stats for CLI reports.
func (s Stats) String() string {
	return fmt.Sprintf(
		"hits=%d (mem %d, disk %d) misses=%d computes=%d coalesced=%d evictions=%d mem=%dB/%d entries",
		s.Hits, s.MemHits, s.DiskHits, s.Misses, s.Computes, s.Coalesced,
		s.Evictions, s.MemBytes, s.MemEntries)
}

// memItem is one memory-tier entry; the list element order is the LRU
// order and the only eviction authority.
type memItem struct {
	id   string
	val  []byte
	size int64
}

// Cache is the two-tier content-addressed store. It is safe for
// concurrent use by any number of campaigns; all methods may be called
// from multiple goroutines.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	stats  Stats

	dir    string
	flight *Flight[string, []byte]

	metrics *obs.Registry
}

// New builds a cache. When cfg.Dir is non-empty the directory is created
// if needed; existing entries from previous processes are served
// immediately, which is what makes the cache survive restarts.
func New(cfg Config) (*Cache, error) {
	budget := cfg.MemBytes
	if budget <= 0 {
		budget = DefaultMemBytes
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: create dir: %w", err)
		}
	}
	return &Cache{
		budget:  budget,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		dir:     cfg.Dir,
		flight:  NewFlight[string, []byte](),
		metrics: cfg.Metrics,
	}, nil
}

// Get returns the cached value for key, consulting the memory tier first
// and the disk tier second (promoting disk hits into memory). The
// returned slice is the caller's to keep: it is never aliased by later
// cache operations.
func (c *Cache) Get(key Key) ([]byte, bool) {
	if v, ok := c.memGet(key.ID); ok {
		c.note(&c.stats.Hits, &c.stats.MemHits)
		c.metrics.Counter("cache.hits").Inc()
		c.metrics.Counter("cache.hits_mem").Inc()
		return v, true
	}
	if v, ok := c.diskGet(key); ok {
		c.memPut(key.ID, v)
		c.note(&c.stats.Hits, &c.stats.DiskHits)
		c.metrics.Counter("cache.hits").Inc()
		c.metrics.Counter("cache.hits_disk").Inc()
		return append([]byte(nil), v...), true
	}
	c.note(&c.stats.Misses)
	c.metrics.Counter("cache.misses").Inc()
	return nil, false
}

// Put stores a value in both tiers. The memory tier copy is made under
// the byte budget (values larger than the whole budget bypass it); the
// disk tier write is atomic. A disk write failure is returned - callers
// on best-effort paths should count it and continue, since the value is
// already served from memory.
func (c *Cache) Put(key Key, val []byte) error {
	c.note(&c.stats.Puts)
	c.metrics.Counter("cache.puts").Inc()
	c.memPut(key.ID, append([]byte(nil), val...))
	if err := c.diskPut(key, val); err != nil {
		c.note(&c.stats.PutErrors)
		c.metrics.Counter("cache.put_errors").Inc()
		return err
	}
	return nil
}

// GetOrCompute returns the cached value for key, or runs compute exactly
// once across all concurrent callers (per-key singleflight) and caches
// its result in both tiers. cached reports whether this call avoided
// running compute - by a tier hit or by adopting another caller's
// in-flight compute. Disk-tier store failures are counted, not
// propagated: the computed value is correct regardless of whether it
// could be persisted. Like Get, the returned slice is the caller's to
// keep: cold-path results are copied per caller, so the leader and its
// coalesced waiters never alias one another's bytes.
func (c *Cache) GetOrCompute(key Key, compute func() ([]byte, error)) (val []byte, cached bool, err error) {
	for {
		if v, ok := c.Get(key); ok {
			return v, true, nil
		}
		v, cached, completed, err := c.computeOnce(key, compute)
		if !completed {
			// The leader panicked; re-check the tiers and retry - one
			// retrying caller becomes the next leader.
			continue
		}
		if err != nil {
			return nil, cached, err
		}
		// The flight hands every caller the same slice the leader's
		// compute returned; copy so one caller mutating its result cannot
		// poison the others (or, through them, the leader).
		return append([]byte(nil), v...), cached, nil
	}
}

// computeOnce is the half of GetOrCompute a caller enters after its Get
// missed: join the key's flight or lead one. cached reports that this
// caller did not run compute; completed is false only when the leader it
// joined panicked.
func (c *Cache) computeOnce(key Key, compute func() ([]byte, error)) (val []byte, cached, completed bool, err error) {
	// landed is set when this caller led a flight that found nothing left
	// to do: it adopted a compute that had just landed, and counts as
	// coalesced with it like the waiters that saw it land.
	landed := false
	v, err, shared, completed := c.flight.Do(key.ID, func() ([]byte, error) {
		// The caller's Get and this Do are not one step: another caller's
		// flight for the key may have been up at the Get and torn down by
		// the Do, which makes this caller a second leader for a value the
		// tiers already hold. Look again before computing - quietly, since
		// the miss is already counted and this is no new lookup: no hit or
		// miss, no recency update, no promotion.
		if v, ok := c.peek(key); ok {
			landed = true
			return v, nil
		}
		c.note(&c.stats.Computes)
		c.metrics.Counter("cache.computes").Inc()
		v, err := compute()
		if err != nil {
			return nil, err
		}
		if perr := c.Put(key, v); perr != nil {
			// Counted by Put; the compute result is still good.
		}
		return v, nil
	})
	if shared || landed {
		c.note(&c.stats.Coalesced)
		c.metrics.Counter("cache.coalesced").Inc()
	}
	return v, shared || landed, completed, err
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.MemBytes = c.bytes
	s.MemEntries = len(c.items)
	return s
}

// MemKeys returns the memory tier's entry IDs from most to least
// recently used: the exact eviction order (back first), exposed so the
// determinism tests can pin it.
func (c *Cache) MemKeys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for e := c.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*memItem).id)
	}
	return out
}

// note increments stats fields under the lock.
func (c *Cache) note(fields ...*int64) {
	c.mu.Lock()
	for _, f := range fields {
		*f++
	}
	c.mu.Unlock()
}

// memGet looks the key up in the memory tier and, on a hit, marks it
// most recently used. The returned slice is a copy.
func (c *Cache) memGet(id string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[id]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(e)
	return append([]byte(nil), e.Value.(*memItem).val...), true
}

// peek reads the tiers without leaving a trace: no hit or miss is
// counted, the memory tier's recency order is untouched, a disk hit is
// not promoted and a corrupt disk entry is not tallied (the Get that
// preceded this already did). The returned slice is the caller's.
func (c *Cache) peek(key Key) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.items[key.ID]
	if ok {
		v := append([]byte(nil), e.Value.(*memItem).val...)
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()
	v, ok, _ := c.diskRead(key)
	return v, ok
}

// memPut inserts (or refreshes) an entry and evicts from the LRU tail
// until the budget holds again - before releasing the lock, so the
// budget is never observed exceeded. Values larger than the entire
// budget are not admitted: admitting one would evict everything and
// still bust the budget.
func (c *Cache) memPut(id string, val []byte) {
	size := int64(len(val)) + int64(len(id)) + memEntryOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		c.stats.Oversize++
		return
	}
	if e, ok := c.items[id]; ok {
		// Refresh: identical content under content addressing, but the
		// recency update still matters.
		it := e.Value.(*memItem)
		c.bytes += size - it.size
		it.val = val
		it.size = size
		c.ll.MoveToFront(e)
	} else {
		c.items[id] = c.ll.PushFront(&memItem{id: id, val: val, size: size})
		c.bytes += size
	}
	for c.bytes > c.budget {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		it := tail.Value.(*memItem)
		c.ll.Remove(tail)
		delete(c.items, it.id)
		c.bytes -= it.size
		c.stats.Evictions++
		c.metrics.Counter("cache.evictions").Inc()
	}
	c.metrics.Gauge("cache.mem_bytes").Set(float64(c.bytes))
}

// Disk tier. One file per entry, named by the key hash and sharded by
// its first byte to keep directories small. The file is an hio container
// holding the canonical key (verified on read - a collision or misfiled
// entry is a miss, not a wrong answer) and the value bytes (CRC-checked
// by hio itself).

const diskEntryGroup = "cache-entry"

// diskPath shards entries as <dir>/<id[:2]>/<id>.fhio.
func (c *Cache) diskPath(key Key) string {
	return filepath.Join(c.dir, key.ID[:2], key.ID+".fhio")
}

// diskPut writes one entry atomically.
func (c *Cache) diskPut(key Key, val []byte) error {
	if c.dir == "" {
		return nil
	}
	file := hio.New()
	grp, err := file.Root().CreateGroup(diskEntryGroup)
	if err != nil {
		return fmt.Errorf("cache: disk put: %w", err)
	}
	grp.SetAttr("key", key.Canonical)
	// hio rejects zero-length datasets, so the payload travels with a
	// one-byte version prefix; diskGet strips it.
	framed := make([]byte, 0, len(val)+1)
	framed = append(framed, 0x01)
	framed = append(framed, val...)
	if err := grp.WriteBytes("value", framed); err != nil {
		return fmt.Errorf("cache: disk put: %w", err)
	}
	path := c.diskPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: disk put: %w", err)
	}
	if err := file.Save(path); err != nil {
		return fmt.Errorf("cache: disk put: %w", err)
	}
	return nil
}

// diskGet reads one entry. Every failure mode - missing file, torn
// write, bit rot (hio's CRCs), wrong container shape, mismatched
// canonical key - is a miss: the caller recomputes and the next Put
// atomically replaces the bad file. Corrupt entries are counted and
// deliberately left in place rather than deleted here, so a concurrent
// writer's fresh entry is never racily unlinked.
func (c *Cache) diskGet(key Key) ([]byte, bool) {
	v, ok, corrupt := c.diskRead(key)
	if corrupt {
		c.dropCorrupt()
	}
	return v, ok
}

// diskRead is diskGet without the accounting: corrupt reports an entry
// that exists but cannot be trusted.
func (c *Cache) diskRead(key Key) (val []byte, ok, corrupt bool) {
	if c.dir == "" {
		return nil, false, false
	}
	file, err := hio.Load(c.diskPath(key))
	if err != nil {
		// ENOTDIR means a path component is not a directory: the entry
		// (like ENOENT) was simply never written - a failed Put against an
		// unwritable shard leaves nothing behind - so neither counts as a
		// corrupt entry.
		return nil, false, !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, syscall.ENOTDIR)
	}
	grp, err := file.Root().Group(diskEntryGroup)
	if err != nil {
		return nil, false, true
	}
	if canon, ok := grp.Attr("key"); !ok || canon != key.Canonical {
		return nil, false, true
	}
	framed, err := grp.ReadBytes("value")
	if err != nil || len(framed) < 1 || framed[0] != 0x01 {
		return nil, false, true
	}
	return framed[1:], true, false
}

// dropCorrupt accounts one disk entry rejected as corrupt or misfiled.
func (c *Cache) dropCorrupt() {
	c.note(&c.stats.CorruptDropped)
	c.metrics.Counter("cache.corrupt_dropped").Inc()
}
