package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"gemini/internal/lint/analysis"
)

// LockSafety polices the lock discipline of the live serving path
// (internal/server) and the observability layer (internal/telemetry) — the
// two packages where goroutines, mutexes, and atomics meet real concurrency
// rather than the simulator's single-threaded event loop. Three checks:
//
//   - lockblocking: a mutex held across a blocking operation — a channel
//     send/receive (outside a select with a default), time.Sleep, a call
//     into package net or net/http, a method on a net.Conn or
//     http.ResponseWriter, or passing an http.ResponseWriter to any callee
//     (fmt.Fprintf(w, ...), json.NewEncoder(w), ...). A slow peer then
//     extends the critical section arbitrarily: /metrics scrapes stall the
//     request path, and the paper's always-on decision loop (§IV) cannot
//     afford a lock whose hold time the network chooses.
//   - lockreturn: a return statement while a mutex is still held and no
//     deferred Unlock covers the function — the classic leaked-lock shape
//     that deadlocks the next request.
//   - atomicmix: the same struct field accessed both through sync/atomic
//     and as a plain read/write under a mutex. The two disciplines do not
//     compose: the mutex does not order the atomic's loads, so the "guarded"
//     access still races.
//
// Suppressions: //gemini:allow lockblocking|lockreturn|atomicmix -- reason.
var LockSafety = &analysis.Analyzer{
	Name: "locksafety",
	Doc: "forbid mutexes held across blocking calls, returns with a lock " +
		"held, and mixed atomic/mutex access to one field in internal/server " +
		"and internal/telemetry",
	Run: runLockSafety,
}

// lockSafetyPkgs are the import-path fragments under the lock contract.
var lockSafetyPkgs = []string{"internal/server", "internal/telemetry"}

func isLockSafetyPkg(path string) bool {
	for _, frag := range lockSafetyPkgs {
		if matchesPkgFrag(path, frag) {
			return true
		}
	}
	return false
}

// isSyncLocker reports whether t (after pointer stripping) is sync.Mutex or
// sync.RWMutex.
func isSyncLocker(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}

// lockOp is one Lock/Unlock call site within a function.
type lockOp struct {
	pos      token.Pos
	mutex    string // rendered receiver, e.g. "n.mu"
	acquire  bool   // Lock/RLock vs Unlock/RUnlock
	deferred bool
}

// mutexOp decomposes a call into a lock operation when the callee is a
// Lock/RLock/Unlock/RUnlock method on a sync mutex.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (mutex string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	tv, okT := pass.TypesInfo.Types[sel.X]
	if !okT || !isSyncLocker(tv.Type) {
		return "", false, false
	}
	return exprName(sel.X), acquire, true
}

// lockRegion is one held interval of a mutex in source order: [lo, hi).
type lockRegion struct {
	mutex    string
	lo, hi   token.Pos
	deferred bool // closed by a deferred Unlock (spans to function end)
	lockPos  token.Pos
}

func runLockSafety(pass *analysis.Pass) error {
	if !isLockSafetyPkg(pass.Pkg.Path()) {
		return nil
	}
	allow := buildAllowIndex(pass)

	atomicFields := map[*types.Var]token.Pos{} // field -> first atomic access
	type guardedAccess struct {
		field *types.Var
		pos   token.Pos
		mutex string
	}
	var guarded []guardedAccess

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			regions := lockRegions(pass, fd)
			checkLockReturns(pass, fd, regions, allow)
			checkBlockingUnderLock(pass, fd, regions, allow)
			collectFieldAccesses(pass, fd, regions, atomicFields, func(v *types.Var, pos token.Pos, mu string) {
				guarded = append(guarded, guardedAccess{v, pos, mu})
			})
		}
	}

	for _, g := range guarded {
		aPos, ok := atomicFields[g.field]
		if !ok || allow.allows(pass, g.pos, "atomicmix") {
			continue
		}
		pass.Reportf(g.pos,
			"field %s is read/written under mutex %s here but accessed via sync/atomic at %s: the mutex does not order the atomic accesses — pick one discipline",
			g.field.Name(), g.mutex, pass.Position(aPos))
	}
	return nil
}

// lockRegions computes the held intervals of every mutex in fd, in source
// order: a Lock opens a region that the next Unlock of the same mutex
// closes; a deferred Unlock extends the region to the function end. The scan
// is flow-insensitive by design — geminivet trades path sensitivity for
// zero dependencies, and the repo's lock bodies are short and linear.
func lockRegions(pass *analysis.Pass, fd *ast.FuncDecl) []lockRegion {
	var ops []lockOp
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure's locks are its own function's story
		case *ast.DeferStmt:
			if mu, acquire, ok := mutexOp(pass, n.Call); ok && !acquire {
				ops = append(ops, lockOp{pos: n.Pos(), mutex: mu, acquire: false, deferred: true})
			}
			return false
		case *ast.CallExpr:
			if mu, acquire, ok := mutexOp(pass, n); ok {
				ops = append(ops, lockOp{pos: n.Pos(), mutex: mu, acquire: acquire})
			}
		}
		return true
	})
	// ops arrive in source order (Inspect is depth-first over a single file).
	var regions []lockRegion
	open := map[string]int{} // mutex -> index into regions, or absent
	deferClosed := map[string]bool{}
	for _, op := range ops {
		switch {
		case op.acquire:
			if _, held := open[op.mutex]; !held {
				regions = append(regions, lockRegion{mutex: op.mutex, lo: op.pos, lockPos: op.pos})
				open[op.mutex] = len(regions) - 1
				if deferClosed[op.mutex] {
					// A deferred Unlock earlier in the function covers every
					// later acquire too (the lock/defer-unlock loop idiom is
					// not in this repo; treat re-acquires as defer-covered).
					regions[len(regions)-1].deferred = true
				}
			}
		case op.deferred:
			deferClosed[op.mutex] = true
			if i, held := open[op.mutex]; held {
				regions[i].deferred = true
			}
		default: // plain Unlock
			if i, held := open[op.mutex]; held && !regions[i].deferred {
				regions[i].hi = op.pos
				delete(open, op.mutex)
			}
		}
	}
	for i := range regions {
		if regions[i].hi == token.NoPos {
			regions[i].hi = fd.Body.End()
		}
	}
	return regions
}

// regionAt returns the innermost region holding pos, preferring non-deferred
// regions (tighter intervals).
func regionAt(regions []lockRegion, pos token.Pos) *lockRegion {
	var found *lockRegion
	for i := range regions {
		r := &regions[i]
		if r.lo < pos && pos < r.hi {
			if found == nil || r.lo > found.lo {
				found = r
			}
		}
	}
	return found
}

// checkLockReturns flags returns inside a non-deferred lock region.
func checkLockReturns(pass *analysis.Pass, fd *ast.FuncDecl, regions []lockRegion, allow allowIndex) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		r := regionAt(regions, ret.Pos())
		if r == nil || r.deferred {
			return true
		}
		if allow.allows(pass, ret.Pos(), "lockreturn") {
			return true
		}
		pass.Reportf(ret.Pos(),
			"return with %s still held (locked at %s, no deferred Unlock): this path leaks the lock",
			r.mutex, pass.Position(r.lockPos))
		return true
	})
}

// blockingDesc classifies a node as a blocking operation, returning a
// human-readable description or "".
func blockingDesc(pass *analysis.Pass, n ast.Node, selectDepth int) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		if selectDepth == 0 {
			return "channel send"
		}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && selectDepth == 0 {
			return "channel receive"
		}
	case *ast.CallExpr:
		return blockingCallDesc(pass, n)
	}
	return ""
}

// blockingCallDesc classifies a call as blocking: network packages, conn or
// response-writer methods, time.Sleep, or an http.ResponseWriter argument.
func blockingCallDesc(pass *analysis.Pass, call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
			fn.Type().(*types.Signature).Recv() == nil {
			switch fn.Pkg().Path() {
			case "net", "net/http":
				return fn.Pkg().Path() + "." + fn.Name() + " call"
			case "time":
				if fn.Name() == "Sleep" {
					return "time.Sleep"
				}
			}
		}
		if tv, ok := pass.TypesInfo.Types[sel.X]; ok {
			if name := netInterfaceName(tv.Type); name != "" {
				return name + "." + sel.Sel.Name + " (client-paced I/O)"
			}
		}
	}
	for _, arg := range call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok {
			if name := netInterfaceName(tv.Type); name == "http.ResponseWriter" {
				return "passing the http.ResponseWriter to " + exprName(call.Fun)
			}
		}
	}
	return ""
}

// netInterfaceName recognizes the network-paced interface types:
// net/http.ResponseWriter and net.Conn.
func netInterfaceName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	switch {
	case named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "ResponseWriter":
		return "http.ResponseWriter"
	case named.Obj().Pkg().Path() == "net" && named.Obj().Name() == "Conn":
		return "net.Conn"
	}
	return ""
}

// checkBlockingUnderLock flags blocking operations inside any lock region.
func checkBlockingUnderLock(pass *analysis.Pass, fd *ast.FuncDecl, regions []lockRegion, allow allowIndex) {
	if len(regions) == 0 {
		return
	}
	var walk func(n ast.Node, selectDepth int)
	walk = func(root ast.Node, selectDepth int) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				if n != root {
					// A select with a default clause never blocks; one without
					// still parks the goroutine, but its comm cases are the
					// idiomatic wait shape — only flag the non-default sends
					// and receives via the increased depth when a default
					// exists.
					depth := selectDepth
					if hasDefaultClause(n) {
						depth++
					}
					walk(n, depth)
					return false
				}
				return true
			}
			if desc := blockingDesc(pass, n, selectDepth); desc != "" {
				if r := regionAt(regions, n.Pos()); r != nil {
					if !allow.allows(pass, n.Pos(), "lockblocking") {
						pass.Reportf(n.Pos(),
							"%s while holding %s (locked at %s): a slow peer extends the critical section arbitrarily — snapshot under the lock, then block outside it",
							desc, r.mutex, pass.Position(r.lockPos))
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, 0)
}

// hasDefaultClause reports whether the select carries a default case.
func hasDefaultClause(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// collectFieldAccesses records, for the atomicmix check, every struct field
// reached through a sync/atomic call and every plain selector access to a
// field inside a lock region.
func collectFieldAccesses(pass *analysis.Pass, fd *ast.FuncDecl, regions []lockRegion,
	atomicFields map[*types.Var]token.Pos, guarded func(*types.Var, token.Pos, string)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			un, ok := arg.(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				continue
			}
			if v := fieldVar(pass, un.X); v != nil {
				if _, seen := atomicFields[v]; !seen {
					atomicFields[v] = un.Pos()
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		v := fieldVar(pass, sel)
		if v == nil {
			return true
		}
		r := regionAt(regions, sel.Pos())
		if r == nil {
			return true
		}
		guarded(v, sel.Pos(), r.mutex)
		return true
	})
}

// fieldVar resolves a selector to the struct field it names, or nil.
func fieldVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}
