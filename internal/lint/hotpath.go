package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gemini/internal/lint/analysis"
)

// Hotpath polices functions annotated //gemini:hotpath — the per-request
// engine loop, the telemetry nil-check hooks, and the instrument fast paths
// behind the "zero added allocations per request when telemetry is disabled"
// benchmark contract (TestTelemetryDisabledAddsNoAllocsPerRequest).
//
// Inside an annotated function the analyzer forbids:
//   - fmt.* calls and string concatenation (allocate);
//   - closure literals, make(...), new(...), map composite literals, and
//     &T{...} pointer composites (allocate);
//   - go statements (hidden goroutine + order hazards);
//   - calls to module functions that are not themselves annotated
//     //gemini:hotpath (so the allocation discipline propagates), except
//     dynamic calls (interface methods, func values) which cannot be
//     resolved statically.
//
// The telemetry-disabled contract shapes an escape hatch: statements guarded
// by a telemetry nil-check (`if s.tr != nil { ... }`, or following an early
// `if s.tr == nil { return }`) are exempt — allocations there only happen
// when tracing is enabled, which is exactly the contract. Anything else
// needs an explicit `//gemini:allow hotpath -- reason` suppression.
//
// Allowed callees besides annotated module functions: builtins (append's
// amortized growth is the queue-recycling idiom the engine relies on),
// package math, sort.Search*, and sync/atomic.
var Hotpath = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "forbid allocations and un-annotated callees in //gemini:hotpath " +
		"functions (zero-alloc telemetry-disabled contract)",
	Run: runHotpath,
}

// funcKey canonicalizes a function or method name for the annotation sets:
// "Name" for functions, "Recv.Name" for methods (pointer stripped).
func funcKey(recv, name string) string {
	if recv == "" {
		return name
	}
	return recv + "." + name
}

// recvTypeName extracts the receiver's base type name from a FuncDecl.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// annotatedIn returns the //gemini:hotpath function keys declared in files.
func annotatedIn(files []*ast.File) map[string]bool {
	set := map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && hasDirective(fd.Doc, HotpathDirective) {
				set[funcKey(recvTypeName(fd), fd.Name.Name)] = true
			}
		}
	}
	return set
}

func runHotpath(pass *analysis.Pass) error {
	allow := buildAllowIndex(pass)

	// annotated resolves a package's annotation set: this package's up front,
	// a callee's on first use from the files the driver already parsed. Nil
	// means the package is outside the module, or that the driver supplied no
	// module at all; every call into it is then reported.
	sets := map[string]map[string]bool{pass.Pkg.Path(): annotatedIn(pass.Files)}
	annotated := func(pkgPath string) map[string]bool {
		set, seen := sets[pkgPath]
		if !seen && pass.ModuleFiles != nil {
			if files := pass.ModuleFiles(pkgPath); files != nil {
				set = annotatedIn(files)
			}
			sets[pkgPath] = set
		}
		return set
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && hasDirective(fd.Doc, HotpathDirective) {
				checkHotpathFunc(pass, fd, annotated, allow)
			}
		}
	}
	return nil
}

// telemetryGated reports whether expr is a telemetry handle whose nil state
// encodes "tracing disabled": a pointer to a type defined in
// internal/telemetry.
func telemetryGated(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(named.Obj().Pkg().Path(), "internal/telemetry")
}

// nilCheck decomposes `x != nil` / `x == nil`, returning the non-nil side.
func nilCheck(cond ast.Expr) (x ast.Expr, op token.Token, ok bool) {
	be, isBin := cond.(*ast.BinaryExpr)
	if !isBin || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, 0, false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	switch {
	case isNil(be.Y):
		return be.X, be.Op, true
	case isNil(be.X):
		return be.Y, be.Op, true
	}
	return nil, 0, false
}

// terminates reports whether the statement unconditionally leaves the
// enclosing block (return or panic) — the early-exit guard shape.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// posRange is a half-open source interval.
type posRange struct{ lo, hi token.Pos }

// exemptRanges finds the telemetry-enabled regions of an annotated function:
// bodies of `if <telemetry> != nil { ... }`, and block suffixes following an
// `if <telemetry> == nil { return }` guard.
func exemptRanges(pass *analysis.Pass, body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if x, op, ok := nilCheck(n.Cond); ok && op == token.NEQ && telemetryGated(pass, x) {
				out = append(out, posRange{n.Body.Pos(), n.Body.End()})
			}
		case *ast.BlockStmt:
			for i, s := range n.List {
				ifs, ok := s.(*ast.IfStmt)
				if !ok || ifs.Else != nil || len(ifs.Body.List) == 0 {
					continue
				}
				x, op, okNil := nilCheck(ifs.Cond)
				if okNil && op == token.EQL && telemetryGated(pass, x) &&
					terminates(ifs.Body.List[len(ifs.Body.List)-1]) && i+1 < len(n.List) {
					out = append(out, posRange{n.List[i+1].Pos(), n.End()})
				}
			}
		}
		return true
	})
	return out
}

func inRanges(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}

// hotpathStdAllowed lists standard-library callees that never allocate on
// the paths the engine uses.
func hotpathStdAllowed(pkgPath, name string) bool {
	switch pkgPath {
	case "math", "sync/atomic":
		return true
	case "sort":
		return strings.HasPrefix(name, "Search")
	}
	return false
}

func checkHotpathFunc(pass *analysis.Pass, fd *ast.FuncDecl, annotated func(pkgPath string) map[string]bool, allow allowIndex) {
	exempt := exemptRanges(pass, fd.Body)
	report := func(pos token.Pos, format string, args ...any) {
		if inRanges(exempt, pos) || allow.allows(pass, pos, "hotpath") {
			return
		}
		pass.Reportf(pos, "//gemini:hotpath %s: "+format,
			append([]any{fd.Name.Name}, args...)...)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure literal allocates per call")
			return false // its body is the closure's problem, not this path's
		case *ast.GoStmt:
			report(n.Pos(), "go statement spawns a goroutine on the per-request path")
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(n.Pos(), "map literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := n.X.(*ast.CompositeLit); isLit {
					report(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if b, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
						report(n.Pos(), "string concatenation allocates")
					}
				}
			}
		case *ast.CallExpr:
			checkHotpathCall(pass, n, annotated, report)
		}
		return true
	})
}

func checkHotpathCall(pass *analysis.Pass, call *ast.CallExpr, annotated func(pkgPath string) map[string]bool, report func(token.Pos, string, ...any)) {
	// Conversions: flag the allocating string<->slice ones.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if b, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
			if atv, ok := pass.TypesInfo.Types[call.Args[0]]; ok {
				if _, isSlice := atv.Type.Underlying().(*types.Slice); isSlice {
					report(call.Pos(), "string(<slice>) conversion allocates")
				}
			}
		}
		return
	}

	var callee types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		callee = pass.TypesInfo.Uses[fun.Sel]
		// Interface method calls cannot be resolved statically; they are the
		// engine's policy callbacks and are each policy's responsibility.
		if sel, ok := pass.TypesInfo.Selections[fun]; ok && types.IsInterface(sel.Recv()) {
			return
		}
	default:
		return // call through a computed func value: dynamic, unresolvable
	}

	switch obj := callee.(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "make":
			// make of a map or channel always allocates; make of a slice
			// does too and has no amortized-append excuse.
			report(call.Pos(), "make allocates")
		case "new":
			report(call.Pos(), "new allocates")
		case "print", "println":
			report(call.Pos(), "%s writes to stderr", obj.Name())
		}
	case *types.Func:
		if obj.Pkg() == nil {
			return // universe-scope (error.Error)
		}
		pkgPath := obj.Pkg().Path()
		sig, _ := obj.Type().(*types.Signature)
		recv := ""
		if sig != nil && sig.Recv() != nil {
			recv = namedRecvName(sig.Recv().Type())
		}
		key := funcKey(recv, obj.Name())
		switch {
		case pkgPath == "fmt":
			report(call.Pos(), "fmt.%s allocates (formatting on the hot path)", obj.Name())
		case hotpathStdAllowed(pkgPath, obj.Name()):
			// fine
		case pkgPath == pass.Pkg.Path():
			if !annotated(pkgPath)[key] {
				report(call.Pos(), "calls un-annotated %s (add //gemini:hotpath to the callee or guard the call)", key)
			}
		case annotated(pkgPath) == nil:
			report(call.Pos(), "calls %s.%s, which is outside the hot-path allowlist", pkgPath, obj.Name())
		case !annotated(pkgPath)[key]:
			report(call.Pos(), "calls un-annotated %s.%s", pkgPath, key)
		}
	case *types.Var:
		// func-typed variable or field: dynamic.
	}
}

// namedRecvName returns the base type name of a method receiver type.
func namedRecvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
