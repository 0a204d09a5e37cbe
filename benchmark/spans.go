package main

import (
	"sync"
	"sync/atomic"
	"time"

	"femtoverse/internal/obs"
)

// rootLayer is the layer of the benchmark's own per-pass (or per-client
// operation) spans. Its self time is what no product layer accounts for.
const rootLayer = "bench"

// acc is the accounting of one layer (or one named call of a layer).
type acc struct {
	busy, self time.Duration
	n          int64
}

// spans records the traced run. Storage and Chrome export are the
// product's obs.Tracer; what this type adds is what a trace needs to be
// causal - span, parent and operation identifiers - and busy/self
// accounting at nanosecond resolution (the tracer keeps microseconds),
// kept per layer ("solver") and per named call ("solver.cgne"). A nil
// *spans records nothing, so workloads call it unconditionally and the
// untraced run pays one nil check per call.
type spans struct {
	tr   *obs.Tracer
	t0   time.Time
	next atomic.Int64

	mu  sync.Mutex
	acc map[string]acc
}

func newSpans() *spans {
	return &spans{tr: obs.NewTracer(nil), t0: time.Now(), acc: map[string]acc{}}
}

// span is one open interval. Children report their duration to the
// parent so a layer's self time is its span minus what its children
// cover. A span is owned by one goroutine from begin to end.
type span struct {
	rec         *spans
	parent      *span
	layer, name string
	id, op      int64
	start       time.Time
	children    time.Duration
}

// begin opens a span under parent (nil for a root). name is one of a
// fixed few per layer; op identifies the operation the span belongs to
// and every span of one operation shares it.
func (r *spans) begin(parent *span, layer, name string, op int64) *span {
	if r == nil {
		return nil
	}
	return &span{
		rec: r, parent: parent, layer: layer, name: name,
		id: r.next.Add(1), op: op, start: time.Now(),
	}
}

// end closes the span and returns its duration (0 when untraced).
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	var parentID int64
	if s.parent != nil {
		s.parent.children += d
		parentID = s.parent.id
	}
	r := s.rec
	r.mu.Lock()
	for _, key := range [2]string{s.layer, s.layer + "." + s.name} {
		a := r.acc[key]
		a.busy += d
		a.self += d - s.children
		a.n++
		r.acc[key] = a
	}
	r.mu.Unlock()
	r.tr.AddSpan(1, 0, s.layer, s.name, s.start.Sub(r.t0), d, map[string]interface{}{
		"id": s.id, "parent": parentID, "op": s.op,
	})
	return d
}

// totals snapshots the accounting.
func (r *spans) totals() map[string]acc {
	out := map[string]acc{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.acc {
		out[k] = v
	}
	return out
}

// since returns the accounting of the spans closed after the snapshot.
func (r *spans) since(before map[string]acc) map[string]acc {
	out := r.totals()
	for k, v := range out {
		b := before[k]
		out[k] = acc{busy: v.busy - b.busy, self: v.self - b.self, n: v.n - b.n}
	}
	return out
}
