package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"

	"gemini/internal/lint/analysis"
)

// UnitSafety enforces the repository's unit conventions for bare float64
// values. The cpu package's doc fixes the vocabulary — simulated time in
// milliseconds (*Ms), frequencies in GHz (*GHz), energy in joules or
// millijoules (*Joules/*MJ) — but float64 carries no unit, so nothing stops
// a *Sec value from flowing into a *Ms parameter. The analyzer flags:
//
//   - a direct flow (assignment, call argument, return, composite-literal
//     field) from an identifier with one unit suffix into an identifier with
//     a conflicting one;
//   - floats compared with == or != (except comparisons against constant
//     zero, the repository's explicit "unset" sentinel).
//
// Suppressions: //gemini:allow units -- reason, //gemini:allow floatcmp -- reason.
var UnitSafety = &analysis.Analyzer{
	Name: "unitsafety",
	Doc: "flag float64 flows between identifiers with conflicting unit " +
		"suffixes, and float == comparisons",
	Run: runUnitSafety,
}

// unitSuffixes maps identifier suffixes to unit ids, longest first so e.g.
// "MilliJoules" wins over "Joules"-vs-anything ambiguity.
var unitSuffixes = []struct{ suffix, unit string }{
	{"MilliJoules", "millijoules"},
	{"Micros", "microseconds"},
	{"Millis", "milliseconds"},
	{"Joules", "joules"},
	{"Nanos", "nanoseconds"},
	{"Usec", "microseconds"},
	{"Msec", "milliseconds"},
	{"Nsec", "nanoseconds"},
	{"Secs", "seconds"},
	{"MHz", "megahertz"},
	{"GHz", "gigahertz"},
	{"KHz", "kilohertz"},
	{"Sec", "seconds"},
	{"Us", "microseconds"},
	{"Ms", "milliseconds"},
	{"Ns", "nanoseconds"},
	{"MJ", "millijoules"},
	{"Hz", "hertz"},
	{"J", "joules"},
	{"W", "watts"},
	{"MW", "milliwatts"},
}

// unitOf extracts the unit encoded in an identifier's suffix, or "".
// The character before the suffix must be a lower-case letter or digit so
// that camelCase boundaries are respected ("TotalMs" has unit milliseconds;
// "RMS" or "Sec" alone do not match).
func unitOf(name string) string {
	for _, s := range unitSuffixes {
		if !strings.HasSuffix(name, s.suffix) {
			continue
		}
		rest := name[:len(name)-len(s.suffix)]
		if rest == "" {
			return ""
		}
		r := rune(rest[len(rest)-1])
		if unicode.IsLower(r) || unicode.IsDigit(r) {
			return s.unit
		}
	}
	return ""
}

// isFloat reports whether t's underlying type is a floating-point basic type
// (including named types like cpu.Freq).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func runUnitSafety(pass *analysis.Pass) error {
	allow := buildAllowIndex(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkFloatCompare(pass, n, allow)
			case *ast.AssignStmt:
				checkAssignUnits(pass, n, allow)
			case *ast.CallExpr:
				checkCallUnits(pass, n, allow)
			case *ast.KeyValueExpr:
				checkKeyValueUnits(pass, n, allow)
			case *ast.ValueSpec:
				checkValueSpecUnits(pass, n, allow)
			}
			return true
		})
	}
	return nil
}

// checkFloatCompare flags == / != between floats, excluding comparisons
// where either side is an exact constant zero (the unset-field sentinel used
// throughout the config structs).
func checkFloatCompare(pass *analysis.Pass, be *ast.BinaryExpr, allow allowIndex) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	xt, xok := pass.TypesInfo.Types[be.X]
	yt, yok := pass.TypesInfo.Types[be.Y]
	if !xok || !yok || !isFloat(xt.Type) || !isFloat(yt.Type) {
		return
	}
	if isConstZero(xt) || isConstZero(yt) {
		return
	}
	if allow.allows(pass, be.OpPos, "floatcmp") {
		return
	}
	pass.Reportf(be.OpPos,
		"floating-point %s comparison: accumulated float error makes exact equality unreliable — compare with a tolerance or //gemini:allow floatcmp with a reason",
		be.Op)
}

// isConstZero reports whether the expression is an exact constant 0.
func isConstZero(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	return tv.Value.ExactString() == "0"
}

// exprUnit determines the unit of a "direct flow" expression: a plain
// identifier, a selector (x.FieldMs), or a call whose function name carries
// a suffix (LatencyMs()). Arithmetic expressions deliberately return "" —
// unit algebra (GHz·ms = work) is the cpu package's job, not a linter's.
func exprUnit(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return unitOf(e.Name)
	case *ast.SelectorExpr:
		return unitOf(e.Sel.Name)
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			return unitOf(fun.Name)
		case *ast.SelectorExpr:
			return unitOf(fun.Sel.Name)
		}
	case *ast.ParenExpr:
		return exprUnit(e.X)
	}
	return ""
}

// reportUnitFlow reports a src→dst flow when both sides carry conflicting
// units and the value is floating-point.
func reportUnitFlow(pass *analysis.Pass, allow allowIndex, pos token.Pos, dstName, srcName string, src ast.Expr) {
	du, su := unitOf(dstName), exprUnit(src)
	if du == "" || su == "" || du == su {
		return
	}
	if tv, ok := pass.TypesInfo.Types[src]; !ok || !isFloat(tv.Type) {
		return
	}
	if allow.allows(pass, pos, "units") {
		return
	}
	pass.Reportf(pos, "unit mismatch: %s (%s) receives %s (%s)", dstName, du, srcName, su)
}

// exprName renders a short name for diagnostics.
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprName(e.Fun) + "()"
	case *ast.ParenExpr:
		return exprName(e.X)
	}
	return "value"
}

func checkAssignUnits(pass *analysis.Pass, as *ast.AssignStmt, allow allowIndex) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		var dst string
		switch l := lhs.(type) {
		case *ast.Ident:
			dst = l.Name
		case *ast.SelectorExpr:
			dst = l.Sel.Name
		default:
			continue
		}
		reportUnitFlow(pass, allow, as.TokPos, dst, exprName(as.Rhs[i]), as.Rhs[i])
	}
}

func checkValueSpecUnits(pass *analysis.Pass, vs *ast.ValueSpec, allow allowIndex) {
	if len(vs.Names) != len(vs.Values) {
		return
	}
	for i, name := range vs.Names {
		reportUnitFlow(pass, allow, name.Pos(), name.Name, exprName(vs.Values[i]), vs.Values[i])
	}
}

func checkCallUnits(pass *analysis.Pass, call *ast.CallExpr, allow allowIndex) {
	var callee types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		callee = pass.TypesInfo.Uses[fun.Sel]
	default:
		return
	}
	fn, ok := callee.(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			break
		}
		p := params.At(i)
		if sig.Variadic() && i == params.Len()-1 {
			break
		}
		reportUnitFlow(pass, allow, arg.Pos(), p.Name(), exprName(arg), arg)
	}
}

func checkKeyValueUnits(pass *analysis.Pass, kv *ast.KeyValueExpr, allow allowIndex) {
	key, ok := kv.Key.(*ast.Ident)
	if !ok {
		return
	}
	// Only struct-literal fields: the key of a map literal is a value, not a
	// field name, and may legitimately share a suffix with an unrelated value.
	if _, isField := pass.TypesInfo.Uses[key].(*types.Var); !isField {
		return
	}
	reportUnitFlow(pass, allow, kv.Colon, key.Name, exprName(kv.Value), kv.Value)
}
