package autotune

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeKernel is a Tunable whose run time depends deterministically on the
// launch parameters, with a known optimum.
type fakeKernel struct {
	key      Key
	cands    []LaunchParams
	best     LaunchParams
	runs     int
	preTune  int
	postTune int
	lastUsed LaunchParams
}

func (f *fakeKernel) Key() Key                   { return f.key }
func (f *fakeKernel) Candidates() []LaunchParams { return f.cands }
func (f *fakeKernel) Flops() int64               { return 1e6 }
func (f *fakeKernel) PreTune()                   { f.preTune++ }
func (f *fakeKernel) PostTune()                  { f.postTune++ }
func (f *fakeKernel) Run(p LaunchParams) {
	f.runs++
	f.lastUsed = p
	if p != f.best {
		time.Sleep(200 * time.Microsecond)
	}
}

func newFake(name string) *fakeKernel {
	cands := []LaunchParams{
		{Workers: 1, Block: 256},
		{Workers: 2, Block: 1024},
		{Workers: 4, Block: 4096},
	}
	return &fakeKernel{
		key:   Key{Kernel: name, Volume: "4x4x4x8", Aux: "prec=half"},
		cands: cands,
		best:  cands[1],
	}
}

func TestTunerFindsOptimum(t *testing.T) {
	tn := New()
	tn.SetReps(1)
	k := newFake("dslash")
	got := tn.Execute(k)
	if got != k.best {
		t.Fatalf("picked %+v, optimum %+v", got, k.best)
	}
	if k.preTune != 1 || k.postTune != 1 {
		t.Fatalf("PreTune/PostTune called %d/%d times", k.preTune, k.postTune)
	}
}

func TestTunerCachesAfterFirstEncounter(t *testing.T) {
	tn := New()
	if tn.Len() != 0 {
		t.Fatalf("fresh tuner has %d entries", tn.Len())
	}
	tn.SetReps(1)
	k := newFake("dslash")
	tn.Execute(k)
	runsAfterSearch := k.runs
	tn.Execute(k)
	// Second Execute must add exactly one run (no re-search).
	if k.runs != runsAfterSearch+1 {
		t.Fatalf("re-tuned: %d runs after search, %d now", runsAfterSearch, k.runs)
	}
	if k.preTune != 1 {
		t.Fatal("PreTune called again on cache hit")
	}
	if tn.Len() != 1 {
		t.Fatalf("cache has %d entries", tn.Len())
	}
}

func TestTunerDisabledUsesFirstCandidate(t *testing.T) {
	tn := New()
	tn.SetEnabled(false)
	k := newFake("dslash")
	got := tn.Execute(k)
	if got != k.cands[0] {
		t.Fatalf("disabled tuner used %+v", got)
	}
	if k.runs != 1 {
		t.Fatalf("disabled tuner ran %d times", k.runs)
	}
}

func TestDistinctKeysTunedSeparately(t *testing.T) {
	tn := New()
	tn.SetReps(1)
	a := newFake("dslash")
	b := newFake("axpy") // different kernel name -> different key
	tn.Execute(a)
	tn.Execute(b)
	if tn.Len() != 2 {
		t.Fatalf("cache has %d entries, want 2", tn.Len())
	}
	if _, ok := tn.Lookup(a.key); !ok {
		t.Fatal("a not cached")
	}
}

func TestEntryMetadata(t *testing.T) {
	tn := New()
	tn.SetReps(1)
	k := newFake("dslash")
	e := tn.Tune(k)
	if e.Tried != len(k.cands) {
		t.Fatalf("Tried = %d", e.Tried)
	}
	if e.GFLOPS <= 0 {
		t.Fatalf("GFLOPS = %v", e.GFLOPS)
	}
	if e.TunedAt.IsZero() {
		t.Fatal("TunedAt not set")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tunecache.json")
	tn := New()
	tn.SetReps(1)
	k := newFake("dslash")
	tn.Tune(k)
	if err := tn.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	tn2 := New()
	if err := tn2.Load(path); err != nil {
		t.Fatal(err)
	}
	e, ok := tn2.Lookup(k.key)
	if !ok {
		t.Fatal("entry lost in round trip")
	}
	if e.Params != k.best {
		t.Fatalf("params lost: %+v", e.Params)
	}
	// Loading again must not clobber existing entries.
	if err := tn2.Load(path); err != nil {
		t.Fatal(err)
	}
	if tn2.Len() != 1 {
		t.Fatalf("duplicate entries after re-load: %d", tn2.Len())
	}
}

func TestLoadMissingFileErrors(t *testing.T) {
	tn := New()
	if err := tn.Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSearchModelledPicksCheapestPolicy(t *testing.T) {
	tn := New()
	cands := []LaunchParams{{Workers: 0}, {Workers: 1}, {Workers: 2}}
	cost := func(p LaunchParams) float64 {
		// Policy 1 is cheapest.
		return []float64{3.0, 1.0, 2.0}[p.Workers]
	}
	key := Key{Kernel: "comms", Volume: "48x48x48x64", Aux: "nodes=16"}
	got := tn.SearchModelled(key, cands, cost)
	if got.Workers != 1 {
		t.Fatalf("picked policy %d", got.Workers)
	}
	// Cached: a different cost function must not change the answer.
	got2 := tn.SearchModelled(key, cands, func(LaunchParams) float64 { return 0 })
	if got2 != got {
		t.Fatal("modelled search not cached")
	}
}

func TestDefaultCandidatesCoverWorkerRange(t *testing.T) {
	c := DefaultCandidates()
	if len(c) < 4 {
		t.Fatalf("only %d candidates", len(c))
	}
	seen1 := false
	for _, p := range c {
		if p.Workers == 1 {
			seen1 = true
		}
		if p.Block <= 0 || p.Workers <= 0 {
			t.Fatalf("bad candidate %+v", p)
		}
	}
	if !seen1 {
		t.Fatal("single-worker candidate missing")
	}
}

func TestReportListsEntries(t *testing.T) {
	tn := New()
	tn.SetReps(1)
	tn.Tune(newFake("dslash"))
	tn.Tune(newFake("axpy"))
	r := tn.Report()
	if r == "" {
		t.Fatal("empty report")
	}
}

func TestTunerConcurrentExecuteIsSafe(t *testing.T) {
	tn := New()
	tn.SetReps(1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := newFake("dslash") // same key from all goroutines
			tn.Execute(k)
		}()
	}
	wg.Wait()
	if tn.Len() != 1 {
		t.Fatalf("cache has %d entries", tn.Len())
	}
}
