package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Clock is the injected time source of a Tracer. Library code never
// calls time.Now for trace timestamps directly: production injects the
// wall clock, tests and replays inject a deterministic step clock, and
// the exported trace is byte-stable whenever the clock is.
type Clock func() time.Time

// StepClock returns a deterministic Clock: the first call returns start,
// and every call advances by step. It is the replay/test clock behind
// the golden trace files.
func StepClock(start time.Time, step time.Duration) Clock {
	var mu sync.Mutex
	t := start
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now := t
		t = t.Add(step)
		return now
	}
}

// event is one Chrome trace_event record. Complete spans use ph "X"
// (with dur), instants ph "i", metadata ph "M".
type event struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TS   int64                  `json:"ts"` // microseconds since trace start
	Dur  int64                  `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"` // instant scope: "t"
	Args map[string]interface{} `json:"args,omitempty"`
}

// Tracer records spans and instants against an injected clock and
// exports them as Chrome trace_event JSON (chrome://tracing, Perfetto).
// A nil *Tracer is the no-op default: Scopes built over it record
// nothing. Recording takes one short mutex hold per finished span, so
// tracing belongs on control paths and iteration *blocks*, not inside
// site loops.
type Tracer struct {
	clock Clock
	t0    time.Time

	mu     sync.Mutex
	events []event
	procs  map[int]string
	thrds  map[[2]int]string
}

// NewTracer builds a tracer on the given clock (nil selects time.Now).
// The trace's zero timestamp is the moment of creation.
func NewTracer(clock Clock) *Tracer {
	if clock == nil {
		clock = time.Now
	}
	return &Tracer{
		clock: clock,
		t0:    clock(),
		procs: map[int]string{},
		thrds: map[[2]int]string{},
	}
}

func (t *Tracer) lock()   { t.mu.Lock() }
func (t *Tracer) unlock() { t.mu.Unlock() }

// Now returns the tracer's current clock reading; callers that need a
// timestamp consistent with the trace use this instead of time.Now.
// Safe on a nil tracer (zero time).
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.clock()
}

// SetProcessName labels a pid lane in the exported trace (e.g. "solve
// workers"). Safe on a nil tracer.
func (t *Tracer) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.lock()
	t.procs[pid] = name
	t.unlock()
}

// SetThreadName labels a (pid, tid) lane (e.g. "worker 3").
func (t *Tracer) SetThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.lock()
	t.thrds[[2]int{pid, tid}] = name
	t.unlock()
}

// micros converts a clock reading to trace microseconds.
func (t *Tracer) micros(at time.Time) int64 {
	return at.Sub(t.t0).Microseconds()
}

func (t *Tracer) record(e event) {
	t.lock()
	t.events = append(t.events, e)
	t.unlock()
}

// Span is an open interval on a (pid, tid) lane. The zero Span (and any
// Span from a nil tracer) is a no-op. End (or EndWith) closes it and
// records one complete "X" event; a Span must not be ended twice.
type Span struct {
	tr       *Tracer
	pid, tid int
	cat      string
	name     string
	t0       time.Time
	args     map[string]interface{}
}

// End closes the span.
func (s Span) End() { s.EndWith(nil) }

// EndWith closes the span, merging extra args (measured results like
// iteration counts or GFLOPS) into the args given at Begin.
func (s Span) EndWith(extra map[string]interface{}) {
	if s.tr == nil {
		return
	}
	end := s.tr.clock()
	args := s.args
	if len(extra) > 0 {
		merged := make(map[string]interface{}, len(args)+len(extra))
		for k, v := range args {
			merged[k] = v
		}
		for k, v := range extra {
			merged[k] = v
		}
		args = merged
	}
	dur := end.Sub(s.t0).Microseconds()
	if dur < 0 {
		dur = 0
	}
	s.tr.record(event{
		Name: s.name, Cat: s.cat, Ph: "X",
		TS: s.tr.micros(s.t0), Dur: dur,
		PID: s.pid, TID: s.tid, Args: args,
	})
}

// Scope addresses one (pid, tid) lane of a tracer: the handle threaded
// through contexts and Params so instrumented code never carries raw
// pid/tid bookkeeping. The zero Scope is a no-op.
type Scope struct {
	tr       *Tracer
	pid, tid int
}

// NewScope builds a scope on the tracer's (pid, tid) lane. A nil tracer
// yields the no-op zero scope.
func NewScope(tr *Tracer, pid, tid int) Scope {
	if tr == nil {
		return Scope{}
	}
	return Scope{tr: tr, pid: pid, tid: tid}
}

// Enabled reports whether events recorded on this scope go anywhere.
func (sc Scope) Enabled() bool { return sc.tr != nil }

// With returns the same tracer on a different lane.
func (sc Scope) With(pid, tid int) Scope { return Scope{tr: sc.tr, pid: pid, tid: tid} }

// laneTIDStride keeps helper-lane tids clear of the tids drivers hand out
// themselves, which are small worker indices.
const laneTIDStride = 1 << 12

// Lane returns the scope of helper lane i of this scope's lane: the same
// pid on a tid derived from this one and labelled after it. A lane that
// fans work out to helper goroutines gives each its own, so that spans on
// one tid never overlap and a viewer stacks the helpers under their
// caller. Lane 0 is the scope itself.
func (sc Scope) Lane(i int) Scope {
	if sc.tr == nil || i == 0 {
		return sc
	}
	l := sc.With(sc.pid, sc.tid+i*laneTIDStride)
	sc.tr.SetThreadName(l.pid, l.tid, fmt.Sprintf("tid %d lane %d", sc.tid, i))
	return l
}

// Begin opens a span in the given category. Args may be nil.
func (sc Scope) Begin(cat, name string, args map[string]interface{}) Span {
	if sc.tr == nil {
		return Span{}
	}
	return Span{tr: sc.tr, pid: sc.pid, tid: sc.tid, cat: cat, name: name,
		t0: sc.tr.clock(), args: args}
}

// Instant records a zero-duration event (retry, watchdog kill, drain
// phase) at the current clock reading.
func (sc Scope) Instant(cat, name string, args map[string]interface{}) {
	if sc.tr == nil {
		return
	}
	sc.tr.record(event{
		Name: name, Cat: cat, Ph: "i", S: "t",
		TS:  sc.tr.micros(sc.tr.clock()),
		PID: sc.pid, TID: sc.tid, Args: args,
	})
}

// AddSpan records a complete span at an explicit offset from the trace
// origin: the entry point for post-hoc exporters - such as the cluster
// simulator's discrete-event report - whose timestamps are computed
// rather than measured against the clock. Safe on a nil tracer.
func (t *Tracer) AddSpan(pid, tid int, cat, name string, start, dur time.Duration, args map[string]interface{}) {
	if t == nil {
		return
	}
	d := dur.Microseconds()
	if d < 0 {
		d = 0
	}
	t.record(event{
		Name: name, Cat: cat, Ph: "X",
		TS: start.Microseconds(), Dur: d,
		PID: pid, TID: tid, Args: args,
	})
}

// scopeKey is the context key of a Scope.
type scopeKey struct{}

// WithScope attaches the scope to the context; the runtime does this for
// every task attempt so solver instrumentation lands on the lane of the
// worker actually running the solve.
func WithScope(ctx context.Context, sc Scope) context.Context {
	if !sc.Enabled() {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, sc)
}

// ScopeFrom extracts the scope attached by WithScope; the zero (no-op)
// scope when none is attached or ctx is nil.
func ScopeFrom(ctx context.Context) Scope {
	if ctx == nil {
		return Scope{}
	}
	sc, _ := ctx.Value(scopeKey{}).(Scope)
	return sc
}

// chromeTrace is the exported file shape.
type chromeTrace struct {
	TraceEvents []event `json:"traceEvents"`
	// DisplayTimeUnit is advisory for the Chrome UI.
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the recorded events as Chrome trace_event JSON
// loadable in chrome://tracing and Perfetto. The output is canonical:
// metadata first, then events sorted by (ts, pid, tid, name, dur), with
// JSON object keys in fixed order - so a deterministic clock yields a
// byte-identical file, which the golden tests rely on. Safe on a nil
// tracer (writes an empty trace).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	var evs []event
	var meta []event
	if t != nil {
		t.lock()
		evs = append([]event(nil), t.events...)
		pids := make([]int, 0, len(t.procs))
		for pid := range t.procs {
			pids = append(pids, pid)
		}
		keys := make([][2]int, 0, len(t.thrds))
		for k := range t.thrds {
			keys = append(keys, k)
		}
		procs := make(map[int]string, len(t.procs))
		for pid, name := range t.procs {
			procs[pid] = name
		}
		thrds := make(map[[2]int]string, len(t.thrds))
		for k, name := range t.thrds {
			thrds[k] = name
		}
		t.unlock()
		sort.Ints(pids)
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, pid := range pids {
			meta = append(meta, event{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]interface{}{"name": procs[pid]},
			})
		}
		for _, k := range keys {
			meta = append(meta, event{
				Name: "thread_name", Ph: "M", PID: k[0], TID: k[1],
				Args: map[string]interface{}{"name": thrds[k]},
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Dur < b.Dur
	})
	out := chromeTrace{TraceEvents: append(meta, evs...), DisplayTimeUnit: "ms"}
	if out.TraceEvents == nil {
		out.TraceEvents = []event{}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return fmt.Errorf("obs: marshal trace: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	return nil
}

// BusySeconds sums the recorded complete-span durations of one category
// per pid: the trace-side busy accounting that the tests cross-check
// against runtime.Report's busy integrals. Safe on a nil tracer.
func (t *Tracer) BusySeconds(cat string) map[int]float64 {
	out := map[int]float64{}
	if t == nil {
		return out
	}
	t.lock()
	evs := append([]event(nil), t.events...)
	t.unlock()
	for _, e := range evs {
		if e.Ph == "X" && e.Cat == cat {
			out[e.PID] += float64(e.Dur) / 1e6
		}
	}
	return out
}
