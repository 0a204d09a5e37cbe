package cache

import "sync"

// Flight is a per-key singleflight table: N concurrent callers asking for
// the same cold key execute the expensive function exactly once, with the
// rest blocking on the leader's result. The result cache's GetOrCompute
// runs its cold computations through it.
//
// Semantics:
//
//   - the first caller for a key becomes the leader and runs fn; callers
//     arriving while the flight is up block until it lands;
//   - a leader that returns (value, error) delivers that exact pair to
//     every waiter - errors are shared, not retried, because the waiters'
//     inputs are identical and would fail identically;
//   - a leader that panics propagates the panic to itself only; waiters
//     wake with completed = false and are expected to re-check whatever
//     cache sits in front of the flight and call Do again, whereupon one
//     of them becomes the next leader.
type Flight[K comparable, V any] struct {
	mu       sync.Mutex
	inflight map[K]*flightCall[V]
}

// flightCall is one in-progress execution; waiters block on done. ok
// stays false if the leader panicked, telling waiters to retry. joined
// counts the callers that adopted the flight, under Flight.mu.
type flightCall[V any] struct {
	done   chan struct{}
	val    V
	err    error
	ok     bool
	joined int
}

// NewFlight returns an empty singleflight table.
func NewFlight[K comparable, V any]() *Flight[K, V] {
	return &Flight[K, V]{inflight: make(map[K]*flightCall[V])}
}

// Do executes fn once per key across concurrent callers and returns its
// result. shared reports whether this caller adopted another caller's
// flight instead of running fn itself; completed reports whether the
// flight ran fn to completion. completed is false only when the adopted
// leader panicked - the caller should re-check its cache and call Do
// again (one retrying caller becomes the new leader). When this caller
// is the leader, a panic in fn propagates after the flight is torn down,
// so waiters never deadlock on a dead leader.
func (f *Flight[K, V]) Do(key K, fn func() (V, error)) (val V, err error, shared, completed bool) {
	f.mu.Lock()
	if c, ok := f.inflight[key]; ok {
		c.joined++
		f.mu.Unlock()
		<-c.done
		return c.val, c.err, true, c.ok
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.inflight[key] = c
	f.mu.Unlock()

	// Tear the flight down on every exit path, including a panicking fn:
	// waiters wake, see ok == false, and elect a new leader.
	defer func() {
		f.mu.Lock()
		delete(f.inflight, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	c.ok = true
	return c.val, c.err, false, true
}

// Inflight returns how many keys currently have a flight up, for tests
// and diagnostics.
func (f *Flight[K, V]) Inflight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.inflight)
}

// joined returns how many callers have adopted key's flight, 0 when none
// is up: what the singleflight tests wait on instead of a sleep.
func (f *Flight[K, V]) joined(key K) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.inflight[key]; ok {
		return c.joined
	}
	return 0
}
