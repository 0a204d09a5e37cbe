// Package analysis implements femtolint, the project's static-analysis
// suite. It is a deliberately small, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis model (Analyzer / Pass / Diagnostic)
// built on the standard library's go/ast and go/types, because this tree
// must build offline with the Go toolchain alone.
//
// The analyzers machine-check the contracts that PR 1 made
// load-bearing and that the paper's campaign engineering depends on:
//
//   - ctxcancel:   every for loop in a context-taking function must consult
//     the context, so solves and drivers stay interruptible
//     mid-iteration (the mpi_jm backfilling story needs jobs
//     that yield promptly when preempted).
//   - detrange:    map iteration order must never leak into ordered output,
//     float accumulation, or task emission — bit-for-bit
//     reproducibility across worker counts is a tier-1 test.
//   - globalrand:  all randomness flows from an explicitly seeded
//     *rand.Rand; the global math/rand source would break
//     statistically exact re-analysis of an ensemble.
//   - hotalloc:    no make/append/map allocation inside nested loops of the
//     hot packages (dirac, solver, linalg, contract).
//   - errdrop:     no silently discarded errors outside tests.
//   - dettaint:    interprocedural determinism taint — every function that
//     transitively reads wall-clock time, global rand, map
//     iteration order, GOMAXPROCS/NumCPU, or the environment
//     is recorded in a package fact, and any such call
//     reachable from a determinism-critical root (cache keys
//     and codecs, hio encoders, solver/linalg/dirac kernels,
//     journal records) is a diagnostic.
//   - spanend:     every obs span opened must be ended on all paths
//     (defer or all-returns), so traces cannot silently lose
//     lanes.
//   - lockhold:    no blocking operation (channel ops, select without
//     default, singleflight, waits — and, in the runtime and
//     cache packages, file I/O) while holding a
//     sync.Mutex/RWMutex.
//
// Diagnostics can be suppressed, narrowly, with a justified comment on the
// flagged line or the line above:
//
//	//femtolint:ignore <analyzer> <reason>
//
// The driver rejects directives that are malformed, name an unknown
// analyzer, or omit the reason.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one femtolint pass. Each pass sees one fully
// type-checked package and reports diagnostics; a pass with HasFacts set
// additionally exports a package-level fact (a JSON-serializable summary
// of the package, see facts.go) and may import the facts of the
// package's dependencies — the mechanism that makes dettaint
// interprocedural. There are still no analyzer-to-analyzer dependencies:
// facts flow between packages within one analyzer, never between
// analyzers.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// HasFacts marks the analyzer as exporting package facts. The
	// unitchecker runs fact-bearing analyzers on dependency-only
	// (VetxOnly) units too — suppressing their diagnostics — so facts
	// exist for every package the listed ones import.
	HasFacts bool
}

// A Pass is the unit of work handed to one Analyzer.Run: a single
// type-checked package, plus the facts its dependencies exported for
// this analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	imports    Facts
	exportFact func(json.RawMessage)
	report     func(Diagnostic)
}

// ImportPackageFact decodes into dst the fact this analyzer exported for
// the package with the given import path, reporting whether one exists.
// Facts arrive via the vetx files of direct imports under `go vet`
// (which re-export their own imports' facts, making the flow transitive)
// or via Target.Imports in tests.
func (p *Pass) ImportPackageFact(path string, dst any) bool {
	raw, ok := p.imports[path][p.Analyzer.Name]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, dst) == nil
}

// ExportPackageFact records src as this analyzer's fact for the package
// under analysis. The last export wins; analyzers conventionally export
// exactly once, at the end of Run.
func (p *Pass) ExportPackageFact(src any) error {
	raw, err := json.Marshal(src)
	if err != nil {
		return fmt.Errorf("%s: marshal fact: %w", p.Analyzer.Name, err)
	}
	if p.exportFact != nil {
		p.exportFact(raw)
	}
	return nil
}

// A Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos falls in a _test.go file. All five
// analyzers police production code only: tests intentionally discard
// errors, range maps for coverage, and allocate in benchmark loops.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// All returns the full femtolint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{CtxCancel, DetRange, DetTaint, GlobalRand, HotAlloc, ErrDrop, SpanEnd, LockHold}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface (and so a
// value of it carries failure information that must not be dropped).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.Basic); ok {
		// Unnamed basic types (int, float64, untyped constants, ...)
		// cannot carry methods, so they never implement error; skipping
		// them avoids a types.Implements call on almost every operand.
		return false
	}
	return types.Implements(t, errorInterface) || types.Identical(t, errorInterface)
}

// declaredOutside reports whether the object bound to expr (when expr is a
// plain identifier) was declared outside the [lo, hi] source range. A
// non-identifier expression (selector, index, dereference) always refers to
// storage that outlives the range, so it reports true. Blank identifiers
// report false: assigning to _ stores nothing.
func declaredOutside(info *types.Info, expr ast.Expr, lo, hi token.Pos) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return false
		}
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return false
		}
		return obj.Pos() < lo || obj.Pos() > hi
	case *ast.ParenExpr:
		return declaredOutside(info, e.X, lo, hi)
	default:
		return true
	}
}
