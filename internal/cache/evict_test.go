package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// entrySize mirrors memPut's charge for a value of n bytes under a key
// produced by testKey (64-hex-char IDs).
func entrySize(n int) int64 { return int64(n) + 64 + memEntryOverhead }

// TestLRUEvictionOrderDeterministic: for a fixed sequence of operations,
// the memory tier's recency order and its eviction victims are exactly
// reproducible - eviction is a pure function of the serialized access
// history, with no map-iteration nondeterminism anywhere.
func TestLRUEvictionOrderDeterministic(t *testing.T) {
	run := func() ([]string, Stats) {
		// Budget fits exactly three entries of this value size.
		val := make([]byte, 100)
		c, err := New(Config{MemBytes: 3 * entrySize(100)})
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]Key{}
		for _, n := range []string{"a", "b", "c", "d", "e"} {
			keys[n] = testKey(n)
		}
		mustPut := func(n string) {
			if err := c.Put(keys[n], val); err != nil {
				t.Fatal(err)
			}
		}
		mustPut("a")
		mustPut("b")
		mustPut("c")
		if _, ok := c.Get(keys["a"]); !ok { // a becomes MRU: order a,c,b
			t.Fatal("a missing")
		}
		mustPut("d") // evicts b (LRU): order d,a,c
		mustPut("e") // evicts c: order e,d,a
		return c.MemKeys(), c.Stats()
	}

	order1, st1 := run()
	order2, st2 := run()
	want := []string{testKey("e").ID, testKey("d").ID, testKey("a").ID}
	for i, id := range want {
		if order1[i] != id {
			t.Fatalf("recency order %v, want e,d,a", order1)
		}
	}
	if len(order1) != len(order2) {
		t.Fatalf("runs disagree: %v vs %v", order1, order2)
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatalf("identical histories gave different orders: %v vs %v", order1, order2)
		}
	}
	if st1.Evictions != 2 || st2.Evictions != st1.Evictions {
		t.Fatalf("evictions: %d and %d, want 2", st1.Evictions, st2.Evictions)
	}
}

// TestByteBudgetNeverExceeded: under concurrent Puts and Gets of varied
// sizes, every observation of the memory tier's charge respects the
// budget - Put evicts before it publishes, so not even a transient
// overshoot is visible.
func TestByteBudgetNeverExceeded(t *testing.T) {
	const budget = 10 * 1024
	c, err := New(Config{MemBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	var over atomic.Int64
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if b := c.Stats().MemBytes; b > budget {
				over.Add(1)
			}
		}
	}()

	var wg sync.WaitGroup
	const writers = 8
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := testKey(fmt.Sprintf("w%d-i%d", w, i%37))
				val := make([]byte, (i*97+w*13)%2048)
				if err := c.Put(k, val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if v, ok := c.Get(k); ok && len(v) != len(val) {
					t.Errorf("size changed: %d != %d", len(v), len(val))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	watcher.Wait()
	if n := over.Load(); n != 0 {
		t.Fatalf("budget observed exceeded %d times", n)
	}
	if b := c.Stats().MemBytes; b > budget {
		t.Fatalf("final charge %d exceeds budget %d", b, budget)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("workload never evicted; budget test proved nothing")
	}
}

// TestOversizeValueBypassesMemory: a value larger than the whole budget
// is not admitted (admitting it would evict everything and still bust
// the budget) but is still served from the disk tier.
func TestOversizeValueBypassesMemory(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{MemBytes: 512, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("huge")
	val := make([]byte, 4096)
	if err := c.Put(k, val); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Oversize != 1 || st.MemEntries != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if v, ok := c.Get(k); !ok || len(v) != len(val) {
		t.Fatalf("oversize value lost: %d bytes, %v", len(v), ok)
	}
}

// TestEvictedThenRefetchedRecomputesOnce: after an entry is evicted from
// a memory-only cache, N concurrent re-requests for it trigger exactly
// one recompute - eviction restores the cold-key singleflight contract,
// it does not fan out into N solves.
func TestEvictedThenRefetchedRecomputesOnce(t *testing.T) {
	val := make([]byte, 100)
	c, err := New(Config{MemBytes: 2 * entrySize(100)})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("victim")
	var computes atomic.Int64
	compute := func() ([]byte, error) {
		computes.Add(1)
		return val, nil
	}
	if _, cached, err := c.GetOrCompute(k, compute); err != nil || cached {
		t.Fatalf("cold fill: cached=%v err=%v", cached, err)
	}
	// Evict the victim by filling the budget with fresh entries.
	for _, n := range []string{"f1", "f2", "f3"} {
		if err := c.Put(testKey(n), val); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.memGet(k.ID); ok {
		t.Fatal("victim still resident; eviction setup broken")
	}

	const goroutines = 12
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute(k, compute)
			if err != nil || len(v) != len(val) {
				t.Errorf("refetch: %d bytes, %v", len(v), err)
			}
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 2 {
		t.Fatalf("computed %d times, want 2 (cold fill + one re-solve after eviction)", got)
	}
}
