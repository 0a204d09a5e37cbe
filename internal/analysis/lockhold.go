package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHold forbids blocking while holding a sync.Mutex or sync.RWMutex —
// the deadlock-and-convoy class once debugged by hand in the runtime pool
// and the cache. A goroutine that parks inside a critical section stalls
// every other goroutine contending for that lock, which at campaign scale
// turns one slow disk write into a fleet-wide utilization hole.
//
// Blocking operations: channel send/receive, range over a channel,
// select without a default case, sync.WaitGroup.Wait, time.Sleep, and
// the cache's singleflight entry points Flight.Do / Cache.GetOrCompute
// (both park the caller behind another goroutine's compute). In the
// packages whose locks were the actual trouble spots —
// internal/{runtime,cache} — file I/O (os file operations, *os.File
// methods, hio load/save) counts as blocking too. It does not elsewhere:
// core's journal serializes its file writes under a mutex on purpose
// (one writer, crash-consistent ordering), and that design is legitimate.
//
// sync.Cond.Wait is exempt: it atomically releases the mutex while
// parked, which is precisely the sanctioned way to block "under" a lock
// (the runtime pool's admission and drain paths rely on it).
//
// The analysis is per-function and syntactic: lock regions are tracked by
// the receiver expression text (`p.mu`, `c.flightMu`), a deferred unlock
// holds to function end, and branch bodies are analyzed with a copy of
// the held set. Function literal and go-statement bodies are skipped —
// they execute on their own goroutine or schedule.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "no blocking operation (channel ops, select, singleflight, waits, file I/O in runtime/cache) while holding a sync.Mutex/RWMutex",
	Run:  runLockHold,
}

// lockIOPkgs are the import-path suffixes where file I/O under a lock is
// reported. See the package comment for why this is not universal.
var lockIOPkgs = []string{
	"internal/runtime",
	"internal/cache",
}

func runLockHold(pass *Pass) error {
	ioBlocks := false
	for _, s := range lockIOPkgs {
		if hasPkgSuffix(pass.Pkg.Path(), s) {
			ioBlocks = true
			break
		}
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				lh := &lockHoldChecker{pass: pass, ioBlocks: ioBlocks}
				lh.walkStmts(fd.Body.List, map[string]token.Pos{})
			}
		}
	}
	return nil
}

type lockHoldChecker struct {
	pass     *Pass
	ioBlocks bool
}

// mutexOp classifies call as a sync.Mutex/RWMutex lock or unlock and
// returns the receiver expression text as the region key.
func (lh *lockHoldChecker) mutexOp(call *ast.CallExpr) (key string, isLock, isUnlock bool) {
	fn := calleeFunc(lh.pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false, false
	}
	recv := sig.Recv().Type()
	if p, ok := types.Unalias(recv).(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	if !ok {
		return "", false, false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	key = types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return key, true, false
	case "Unlock", "RUnlock":
		return key, false, true
	}
	return "", false, false
}

// walkStmts analyzes a statement list sequentially, mutating held as
// locks are taken and released. Nested control-flow bodies get a copy,
// so a branch's unlock does not leak into the fall-through path.
func (lh *lockHoldChecker) walkStmts(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		lh.walkStmt(s, held)
	}
}

func cloneHeld(held map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func (lh *lockHoldChecker) walkStmt(s ast.Stmt, held map[string]token.Pos) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if key, isLock, isUnlock := lh.mutexOp(call); isLock || isUnlock {
				if isLock {
					held[key] = call.Pos()
				} else {
					delete(held, key)
				}
				return
			}
		}
		lh.checkBlocking(st, held)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` holds the lock to function end — the
		// idiomatic pattern — so the region simply stays open. A deferred
		// closure is not entered: it runs at exit.
	case *ast.GoStmt:
		// A new goroutine does not hold the caller's locks.
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.ReturnStmt, *ast.SendStmt:
		lh.checkBlocking(s, held)
	case *ast.BlockStmt:
		lh.walkStmts(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			lh.walkStmt(st.Init, held)
		}
		lh.checkBlockingExpr(st.Cond, held, st.Cond.Pos())
		lh.walkStmts(st.Body.List, cloneHeld(held))
		if st.Else != nil {
			lh.walkStmt(st.Else, cloneHeld(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			lh.walkStmt(st.Init, held)
		}
		if st.Cond != nil {
			lh.checkBlockingExpr(st.Cond, held, st.Cond.Pos())
		}
		lh.walkStmts(st.Body.List, cloneHeld(held))
	case *ast.RangeStmt:
		if t := lh.pass.TypesInfo.TypeOf(st.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan && len(held) > 0 {
				lh.reportBlocked(st.For, "range over a channel", held)
			}
		}
		lh.checkBlockingExpr(st.X, held, st.X.Pos())
		lh.walkStmts(st.Body.List, cloneHeld(held))
	case *ast.SwitchStmt:
		lh.walkCaseBodies(st.Body, held)
	case *ast.TypeSwitchStmt:
		lh.walkCaseBodies(st.Body, held)
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(st) {
			lh.reportBlocked(st.Select, "select with no default case", held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				lh.walkStmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.LabeledStmt:
		lh.walkStmt(st.Stmt, held)
	}
}

func (lh *lockHoldChecker) walkCaseBodies(body *ast.BlockStmt, held map[string]token.Pos) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			lh.walkStmts(cc.Body, cloneHeld(held))
		}
	}
}

func selectHasDefault(st *ast.SelectStmt) bool {
	for _, c := range st.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// checkBlocking scans one simple statement's expressions for blocking
// operations while held is non-empty.
func (lh *lockHoldChecker) checkBlocking(s ast.Stmt, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	if send, ok := s.(*ast.SendStmt); ok {
		lh.reportBlocked(send.Pos(), "channel send", held)
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch nd := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if nd.Op == token.ARROW {
				lh.reportBlocked(nd.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if what := lh.blockingCall(nd); what != "" {
				lh.reportBlocked(nd.Pos(), what, held)
			}
		}
		return true
	})
}

func (lh *lockHoldChecker) checkBlockingExpr(e ast.Expr, held map[string]token.Pos, _ token.Pos) {
	if len(held) == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch nd := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if nd.Op == token.ARROW {
				lh.reportBlocked(nd.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if what := lh.blockingCall(nd); what != "" {
				lh.reportBlocked(nd.Pos(), what, held)
			}
		}
		return true
	})
}

// blockingCall names the blocking operation call performs, or "".
func (lh *lockHoldChecker) blockingCall(call *ast.CallExpr) string {
	fn := calleeFunc(lh.pass, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	pkgPath := fn.Pkg().Path()
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)

	recvNamed := func() *types.Named {
		if sig == nil || sig.Recv() == nil {
			return nil
		}
		t := sig.Recv().Type()
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		named, _ := types.Unalias(t).(*types.Named)
		return named
	}

	switch pkgPath {
	case "sync":
		// WaitGroup.Wait parks; Cond.Wait releases the mutex while
		// parked and is the sanctioned blocking-under-lock primitive.
		if named := recvNamed(); named != nil && named.Obj().Name() == "WaitGroup" && name == "Wait" {
			return "sync.WaitGroup.Wait"
		}
		return ""
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
		return ""
	case "os":
		if !lh.ioBlocks {
			return ""
		}
		if named := recvNamed(); named != nil && named.Obj().Name() == "File" {
			return "file I/O (os.File." + name + ")"
		}
		switch name {
		case "Open", "OpenFile", "Create", "CreateTemp", "ReadFile", "WriteFile",
			"Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "ReadDir", "Stat", "Truncate":
			return "file I/O (os." + name + ")"
		}
		return ""
	}
	if hasPkgSuffix(pkgPath, "internal/cache") {
		if named := recvNamed(); named != nil {
			switch {
			case named.Obj().Name() == "Flight" && name == "Do":
				return "singleflight Flight.Do"
			case named.Obj().Name() == "Cache" && name == "GetOrCompute":
				return "Cache.GetOrCompute"
			}
		}
	}
	if lh.ioBlocks && hasPkgSuffix(pkgPath, "internal/hio") {
		switch name {
		case "Load", "Save", "Open", "Create":
			return "file I/O (hio." + name + ")"
		}
	}
	return ""
}

func (lh *lockHoldChecker) reportBlocked(pos token.Pos, what string, held map[string]token.Pos) {
	// Report against the lock taken first (deterministically: smallest
	// position), which is the outermost region.
	var bestKey string
	var bestPos token.Pos
	for k, p := range held {
		if bestKey == "" || p < bestPos {
			bestKey, bestPos = k, p
		}
	}
	lh.pass.Reportf(pos, "%s while holding %s (locked at line %d); release the lock before blocking",
		what, bestKey, lh.pass.Fset.Position(bestPos).Line)
}
