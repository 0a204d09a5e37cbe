package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden trace file")

// traceStart is the fixed epoch of the deterministic test clock.
var traceStart = time.Date(2018, 11, 11, 0, 0, 0, 0, time.UTC)

// buildCampaignTrace records the span tree of a fixed seeded two-
// configuration campaign - campaign -> configuration -> solve ->
// iteration blocks, plus the instants the runtime emits - against a
// deterministic step clock. It is the fixture behind the golden-file
// byte-stability test.
func buildCampaignTrace() *Tracer {
	tr := NewTracer(StepClock(traceStart, 250*time.Microsecond))
	tr.SetProcessName(0, "campaign")
	tr.SetProcessName(1, "solve workers")
	tr.SetProcessName(2, "contract workers")
	tr.SetThreadName(1, 0, "solve 0")
	tr.SetThreadName(2, 0, "contract 0")

	root := NewScope(tr, 0, 0)
	camp := root.Begin("campaign", "campaign", map[string]interface{}{"configs": 2})
	for cfg := 0; cfg < 2; cfg++ {
		sc := NewScope(tr, 1, 0)
		conf := sc.Begin("task", "solve cfg", map[string]interface{}{"config": cfg})
		for solve := 0; solve < 2; solve++ {
			sp := sc.Begin("solver", "cgne-mixed", map[string]interface{}{"solve": solve})
			blk := sc.Begin("solver", "cg-block", nil)
			blk.EndWith(map[string]interface{}{"iterations": 7})
			sc.Instant("solver", "reliable-update", map[string]interface{}{"rnorm": 0.125})
			sp.EndWith(map[string]interface{}{"iterations": 7, "converged": true})
		}
		conf.End()
		cc := NewScope(tr, 2, 0)
		ct := cc.Begin("task", "contract cfg", map[string]interface{}{"config": cfg})
		ct.End()
	}
	root.Instant("sched", "drain-soft", map[string]interface{}{"reason": "budget expired"})
	camp.End()
	return tr
}

// TestChromeTraceGolden pins the exporter byte for byte: a fixed seeded
// campaign's trace on a deterministic clock must match the checked-in
// golden file exactly. Run with -update-golden after an intentional
// format change.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildCampaignTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace export diverged from golden file\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}

	// And it must be stable across repeated constructions.
	var again bytes.Buffer
	if err := buildCampaignTrace().WriteChromeTrace(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("trace export not byte-stable across identical runs")
	}
}

// TestChromeTraceValid checks the exported JSON parses back into the
// trace_event shape Perfetto expects: a traceEvents array whose complete
// events carry non-negative ts/dur and whose metadata names the lanes.
func TestChromeTraceValid(t *testing.T) {
	var buf bytes.Buffer
	if err := buildCampaignTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			TS   int64                  `json:"ts"`
			Dur  int64                  `json:"dur"`
			PID  int                    `json:"pid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	var spans, instants, metas int
	lastTS := int64(-1)
	metaDone := false
	for _, e := range parsed.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			metaDone = true
			if e.TS < 0 || e.Dur < 0 {
				t.Fatalf("negative ts/dur on %q", e.Name)
			}
			if e.TS < lastTS {
				t.Fatalf("events not sorted by ts: %q at %d after %d", e.Name, e.TS, lastTS)
			}
			lastTS = e.TS
		case "i":
			instants++
			metaDone = true
		case "M":
			metas++
			if metaDone {
				t.Fatal("metadata events must precede data events")
			}
		default:
			t.Fatalf("unknown phase %q", e.Ph)
		}
	}
	if spans != 13 || instants != 5 || metas != 5 {
		t.Fatalf("event counts: %d spans, %d instants, %d metas", spans, instants, metas)
	}
}

func TestNilTracerAndScopeNoOp(t *testing.T) {
	var tr *Tracer
	tr.SetProcessName(0, "x")
	tr.SetThreadName(0, 0, "y")
	sc := NewScope(tr, 1, 2)
	if sc.Enabled() {
		t.Fatal("scope over nil tracer claims enabled")
	}
	sp := sc.Begin("c", "n", nil)
	sp.EndWith(map[string]interface{}{"k": 1})
	sc.Instant("c", "n", nil)
	if got := tr.BusySeconds("c"); len(got) != 0 {
		t.Fatal("nil tracer accumulated busy time")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil tracer export invalid: %v", err)
	}

	// The zero scope from an unadorned context is also a no-op.
	if ScopeFrom(context.Background()).Enabled() {
		t.Fatal("ScopeFrom on bare context is enabled")
	}
	if ScopeFrom(nil).Enabled() {
		t.Fatal("ScopeFrom(nil) is enabled")
	}
}

func TestScopeContextRoundTrip(t *testing.T) {
	tr := NewTracer(StepClock(traceStart, time.Microsecond))
	sc := NewScope(tr, 3, 7)
	ctx := WithScope(context.Background(), sc)
	got := ScopeFrom(ctx)
	if !got.Enabled() || got.pid != 3 || got.tid != 7 {
		t.Fatalf("scope did not round-trip: %+v", got)
	}
	moved := got.With(1, 2)
	if moved.pid != 1 || moved.tid != 2 || moved.tr != tr {
		t.Fatalf("With did not rehome the scope: %+v", moved)
	}
}

// TestScopeLane: helper lanes of a lane get tids of their own under the
// same pid, clear of the small tids drivers hand out, and a name that says
// whose they are; lane 0 and the no-op scope are themselves.
func TestScopeLane(t *testing.T) {
	tr := NewTracer(StepClock(traceStart, time.Microsecond))
	sc := NewScope(tr, 3, 7)
	if sc.Lane(0) != sc || (Scope{}).Lane(2) != (Scope{}) {
		t.Fatal("lane 0 or the no-op scope did not stay itself")
	}
	l1, l2 := sc.Lane(1), sc.Lane(2)
	if l1.tr != tr || l1.pid != 3 || l1.tid == l2.tid || l1.tid < laneTIDStride || l1.tid%laneTIDStride != 7 {
		t.Fatalf("helper lanes %+v and %+v of %+v", l1, l2, sc)
	}
	if got := tr.thrds[[2]int{3, l2.tid}]; got != "tid 7 lane 2" {
		t.Fatalf("lane 2 is named %q", got)
	}
}

// TestTracerConcurrent drives spans and instants from many goroutines
// under -race and checks the busy accounting adds up. The goroutines share
// one step clock, so a span covers its own step (100us) plus every step
// another goroutine takes between its Begin and its End. With the
// Begin..End..Instant triples serialised every span is exactly one step
// and the busy sum is exact; free-running, one step a span is only a
// floor, but no span may be lost and the busy sum must still be the sum of
// the recorded spans.
func TestTracerConcurrent(t *testing.T) {
	const workers, per = 8, 50
	for _, serialised := range []bool{true, false} {
		tr := NewTracer(StepClock(traceStart, 100*time.Microsecond))
		var turn sync.Mutex
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			w := w
			go func() {
				defer wg.Done()
				sc := NewScope(tr, 1, w)
				for i := 0; i < per; i++ {
					if serialised {
						turn.Lock()
					}
					sp := sc.Begin("work", "attempt", nil)
					sp.End()
					sc.Instant("work", "tick", nil)
					if serialised {
						turn.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		busy := tr.BusySeconds("work")[1]
		oneStepEach := float64(workers*per) * 100e-6
		if serialised {
			// Every span took exactly one clock step (100us).
			if busy < oneStepEach*0.999 || busy > oneStepEach*1.001 {
				t.Fatalf("serialised: busy seconds = %v, want %v", busy, oneStepEach)
			}
		} else if busy < oneStepEach*0.999 {
			t.Fatalf("busy seconds = %v, below one step a span (%v)", busy, oneStepEach)
		}
		spans, sumMicros := 0, int64(0)
		for _, e := range tr.events {
			if e.Ph == "X" {
				spans++
				sumMicros += e.Dur
			}
		}
		if spans != workers*per {
			t.Fatalf("serialised=%v: %d spans recorded, want %d", serialised, spans, workers*per)
		}
		if want := float64(sumMicros) / 1e6; math.Abs(busy-want) > 1e-9 {
			t.Fatalf("serialised=%v: busy seconds = %v, recorded spans sum to %v", serialised, busy, want)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
	}
}
