package cache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightColdKeyRunsOnce: N concurrent callers on one cold key run fn
// exactly once and all observe the leader's value.
func TestFlightColdKeyRunsOnce(t *testing.T) {
	f := NewFlight[string, int]()
	var calls atomic.Int64
	const goroutines = 16
	var wg sync.WaitGroup
	wg.Add(goroutines)
	vals := make([]int, goroutines)
	sharedCount := atomic.Int64{}
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			v, err, shared, completed := f.Do("k", func() (int, error) {
				calls.Add(1)
				time.Sleep(200 * time.Microsecond)
				return 42, nil
			})
			if err != nil || !completed {
				t.Errorf("caller %d: err=%v completed=%v", g, err, completed)
			}
			if shared {
				sharedCount.Add(1)
			}
			vals[g] = v
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for g, v := range vals {
		if v != 42 {
			t.Fatalf("caller %d got %d", g, v)
		}
	}
	if got := sharedCount.Load(); got != goroutines-1 {
		t.Fatalf("%d callers coalesced, want %d", got, goroutines-1)
	}
	if f.Inflight() != 0 {
		t.Fatalf("flight table not drained: %d", f.Inflight())
	}
}

// TestFlightSharesErrors: a leader's error is delivered to every waiter,
// not retried - identical inputs would fail identically.
func TestFlightSharesErrors(t *testing.T) {
	f := NewFlight[string, int]()
	boom := errors.New("boom")
	var calls atomic.Int64
	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	var errs atomic.Int64
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			_, err, _, completed := f.Do("k", func() (int, error) {
				calls.Add(1)
				time.Sleep(200 * time.Microsecond)
				return 0, boom
			})
			if !completed {
				t.Error("error flight reported incomplete")
			}
			if errors.Is(err, boom) {
				errs.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := errs.Load(); got != goroutines {
		t.Fatalf("%d callers saw the error, want %d", got, goroutines)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
}

// TestFlightLeaderPanicWakesWaiters: a panicking leader propagates the
// panic to itself only; waiters wake with completed=false and a retry
// (per the documented contract) elects a new leader.
func TestFlightLeaderPanicWakesWaiters(t *testing.T) {
	f := NewFlight[string, int]()
	var fails atomic.Int64
	fails.Store(1) // exactly the first execution panics
	var calls, panics, retries atomic.Int64
	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	vals := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					panics.Add(1)
				}
			}()
			for {
				v, err, _, completed := f.Do("k", func() (int, error) {
					// The n-th leader waits until every caller still
					// running has joined its flight: all the others for
					// the first, all but the one that saw the panic for
					// the second.
					n := calls.Add(1)
					waitJoined(t, f, "k", goroutines-int(n))
					if fails.Add(-1) >= 0 {
						panic("injected leader failure")
					}
					return 7, nil
				})
				if !completed {
					retries.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("caller %d: %v", g, err)
				}
				vals[g] = v
				return
			}
		}()
	}
	wg.Wait()
	if got := panics.Load(); got != 1 {
		t.Fatalf("%d callers saw the panic, want exactly 1", got)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("fn ran %d times, want 2 (failed + retry)", got)
	}
	if retries.Load() == 0 {
		t.Fatal("no waiter reported an incomplete flight")
	}
	for g, v := range vals {
		// The panicking caller never writes its slot.
		if v != 7 && v != 0 {
			t.Fatalf("caller %d got %d", g, v)
		}
	}
	if f.Inflight() != 0 {
		t.Fatalf("flight table not drained: %d", f.Inflight())
	}
}

// waitJoined blocks until n callers have joined key's flight, and fails
// the test if that takes a minute.
func waitJoined(t *testing.T, f *Flight[string, int], key string, n int) {
	for deadline := time.Now().Add(time.Minute); f.joined(key) < n; time.Sleep(10 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d of %d callers joined the flight", f.joined(key), n)
			return
		}
	}
}

// TestFlightIndependentKeys: flights on different keys do not serialize
// against each other.
func TestFlightIndependentKeys(t *testing.T) {
	f := NewFlight[int, int]()
	var calls atomic.Int64
	const keys = 10
	var wg sync.WaitGroup
	wg.Add(keys)
	for k := 0; k < keys; k++ {
		k := k
		go func() {
			defer wg.Done()
			v, err, _, _ := f.Do(k, func() (int, error) {
				calls.Add(1)
				return k * k, nil
			})
			if err != nil || v != k*k {
				t.Errorf("key %d: v=%d err=%v", k, v, err)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != keys {
		t.Fatalf("fn ran %d times, want %d", got, keys)
	}
}

// TestLateLeaderDoesNotRecompute forces the interleaving that used to
// make GetOrCompute compute twice: caller B's Get misses, caller A's
// whole flight - compute, Put, teardown - lands before B reaches the
// flight table, and B arrives there as a second leader. B must find A's
// value with the quiet re-check: no second compute, no second put, no
// hit or miss counted - B is coalesced with A's compute, the one counter
// that moves - and the memory tier's recency order exactly as A (and the
// Put after it) left it. With and without a disk tier, and
// with the value in the disk tier only.
func TestLateLeaderDoesNotRecompute(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// between runs after A's flight has landed and before B resumes.
		between func(t *testing.T, c *Cache)
	}{
		{name: "memory", cfg: Config{}},
		{name: "memory+disk", cfg: Config{Dir: t.TempDir()}},
		{
			// A two-entry budget and two later Puts: A's value survives on
			// disk alone.
			name: "disk-only", cfg: Config{Dir: t.TempDir(), MemBytes: 2 * entrySize(100)},
			between: func(t *testing.T, c *Cache) {
				if err := c.Put(testKey("later"), make([]byte, 100)); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			k := testKey("raced")
			want := make([]byte, 100)
			want[0] = 7
			computes := 0
			compute := func() ([]byte, error) {
				computes++
				return want, nil
			}

			if _, ok := c.Get(k); ok { // B's Get
				t.Fatal("cold key hit")
			}
			if _, cached, err := c.GetOrCompute(k, compute); err != nil || cached { // A, start to finish
				t.Fatalf("A: cached=%v err=%v", cached, err)
			}
			// Something touched after A, so the raced key is not the most
			// recently used and a recency update would show.
			if err := c.Put(testKey("after"), make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
			if tc.between != nil {
				tc.between(t, c)
			}
			stats, order := c.Stats(), c.MemKeys()

			v, cached, completed, err := c.computeOnce(k, compute) // B reaches the flight table
			if err != nil || !completed || !cached {
				t.Fatalf("B: cached=%v completed=%v err=%v", cached, completed, err)
			}
			if string(v) != string(want) {
				t.Fatal("B got different bytes")
			}
			if computes != 1 {
				t.Fatalf("computed %d times, want 1", computes)
			}
			stats.Coalesced++
			if got := c.Stats(); got != stats {
				t.Fatalf("counters moved:\n before %+v\n after  %+v", stats, got)
			}
			if got := c.MemKeys(); len(got) != len(order) {
				t.Fatalf("memory tier changed: %v -> %v", order, got)
			} else {
				for i := range got {
					if got[i] != order[i] {
						t.Fatalf("recency order changed: %v -> %v", order, got)
					}
				}
			}
		})
	}
}
