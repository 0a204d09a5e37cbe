package analysis_test

import (
	"encoding/json"
	"strings"
	"testing"

	"femtoverse/internal/analysis"
	"femtoverse/internal/analysis/analysistest"
)

// Each fixture package holds positive hits (// want lines), clean idioms
// the analyzer must exempt, and a //femtolint:ignore suppression whose
// line carries no want — so a suppression failure shows up as an
// unexpected diagnostic.

func TestCtxCancel(t *testing.T) {
	analysistest.Run(t, "testdata/ctxcancel", "fixture/ctxcancel", analysis.CtxCancel)
}

func TestDetRange(t *testing.T) {
	analysistest.Run(t, "testdata/detrange", "fixture/detrange", analysis.DetRange)
}

func TestGlobalRand(t *testing.T) {
	analysistest.Run(t, "testdata/globalrand", "fixture/globalrand", analysis.GlobalRand)
}

func TestErrDrop(t *testing.T) {
	analysistest.Run(t, "testdata/errdrop", "fixture/errdrop", analysis.ErrDrop)
}

// TestHotAlloc loads the fixture under an import path with a hot suffix;
// TestHotAllocColdPackage re-loads the identical file under a cold path,
// where the analyzer must not fire at all.

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata/hotalloc", "fixture/internal/dirac", analysis.HotAlloc)
}

func TestHotAllocColdPackage(t *testing.T) {
	analysistest.RunExpectNone(t, "testdata/hotalloc", "fixture/coldpath", analysis.HotAlloc)
}

// TestAllOnCleanFixtures cross-checks that no analyzer fires on another
// analyzer's clean cases beyond what its own want lines declare — i.e.
// the full battery agrees with the per-analyzer expectations on the
// globalrand fixture, whose wants all belong to globalrand.
func TestAllOnGlobalRandFixture(t *testing.T) {
	analysistest.Run(t, "testdata/globalrand", "fixture/globalrand", analysis.All()...)
}

// TestDetTaint is the cross-package fact-propagation fixture: the
// fixture/clockdep dependency is analyzed first, its taint facts flow
// into the target package (loaded under a root path), and wants in the
// target assert on diagnostics that originate one and two calls away in
// the dependency.
func TestDetTaint(t *testing.T) {
	deps := []analysistest.Dep{{Dir: "testdata/deps/clockdep", PkgPath: "fixture/clockdep"}}
	analysistest.RunWithDeps(t, "testdata/dettaint", "fixture/internal/solver", deps, analysis.DetTaint)
}

// TestDetTaintKeyBuilderRoots exercises the root rule that follows cache
// key construction into any package: only KeyBuilder users are reported,
// the rest of the (non-root) package stays silent even when tainted.
func TestDetTaintKeyBuilderRoots(t *testing.T) {
	deps := []analysistest.Dep{{Dir: "testdata/deps/cache", PkgPath: "fixture/internal/cache"}}
	analysistest.RunWithDeps(t, "testdata/dettaintkeys", "fixture/workflow", deps, analysis.DetTaint)
}

// TestDetTaintJournalRoots exercises the internal/core root rule: Journal
// methods and Record/Payload-named functions only.
func TestDetTaintJournalRoots(t *testing.T) {
	analysistest.Run(t, "testdata/dettaintcore", "fixture/internal/core", analysis.DetTaint)
}

// TestDetTaintFactContent asserts on the exported fact itself — the data
// that crosses package boundaries through vetx files — rather than on
// diagnostics: tainted functions carry their source and call path,
// exempt ones are absent.
func TestDetTaintFactContent(t *testing.T) {
	facts := analysistest.Facts(t, "testdata/deps/clockdep", "fixture/clockdep", nil, analysis.DetTaint)
	raw, ok := facts["dettaint"]
	if !ok {
		t.Fatalf("no dettaint fact exported; got %v", facts)
	}
	var fact map[string]struct {
		Source string `json:"source"`
		Path   string `json:"path"`
	}
	if err := json.Unmarshal(raw, &fact); err != nil {
		t.Fatalf("decoding dettaint fact: %v", err)
	}
	if ti := fact["Stamp"]; ti.Path != "time.Now" || !strings.Contains(ti.Source, "wall-clock") {
		t.Errorf("Stamp fact = %+v, want a wall-clock source with path time.Now", ti)
	}
	if ti := fact["Indirect"]; ti.Path != "Stamp → time.Now" {
		t.Errorf("Indirect fact path = %q, want the transitive chain through Stamp", ti.Path)
	}
	if _, tainted := fact["Elapsed"]; tainted {
		t.Error("Elapsed is the measured-timing idiom and must not be tainted")
	}
}

func TestSpanEnd(t *testing.T) {
	deps := []analysistest.Dep{{Dir: "testdata/deps/obs", PkgPath: "fixture/internal/obs"}}
	analysistest.RunWithDeps(t, "testdata/spanend", "fixture/tracer", deps, analysis.SpanEnd)
}

func TestLockHold(t *testing.T) {
	deps := []analysistest.Dep{{Dir: "testdata/deps/cache", PkgPath: "fixture/internal/cache"}}
	analysistest.RunWithDeps(t, "testdata/lockhold", "fixture/internal/runtime", deps, analysis.LockHold)
}

// TestLockHoldFileIOScope loads the same file-write-under-mutex fixture
// under a cache path (where it is the convoy bug) and a neutral path
// (where core-journal-style serialized writes are the intended design).
func TestLockHoldFileIOScope(t *testing.T) {
	analysistest.Run(t, "testdata/lockholdio", "fixture/internal/cache", analysis.LockHold)
	analysistest.RunExpectNone(t, "testdata/lockholdio", "fixture/journalish", analysis.LockHold)
}
