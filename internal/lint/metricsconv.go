package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"gemini/internal/lint/analysis"
)

// MetricsConv enforces the repository's Prometheus naming conventions at
// every telemetry.Registry registration site and telemetry.L label
// constructor, module-wide. Four checks:
//
//   - metricname: every registered metric name carries the gemini_ prefix
//     (one namespace on shared scrape endpoints), and counter names end in
//     _total per Prometheus convention.
//   - metricunit: unit-bearing names use the canonical suffix table — _ms,
//     _us, _ns, _watts, _mj, _bytes, _ghz, _pct — so dashboards never have
//     to guess a scale. Alias spellings (_msec, _millis, _milliseconds, …)
//     are pure renames and the diagnostic spells the canonical suffix;
//     _seconds is flagged as a rescale, because switching to _ms changes
//     every recorded value and not only the name.
//   - metrichelp: help strings are non-empty — `# HELP` lines are the only
//     documentation a scrape consumer sees.
//   - metriclabel: label values come from bounded sets: a constant, or a
//     strconv.Itoa/Format* rendering of a bounded numeric (shard and replica
//     indices). Anything else — a request field, an error string — is
//     unbounded cardinality and blows up the time-series store. Genuinely
//     bounded dynamic values (a build version, a listener address chosen
//     from config) carry a reasoned //gemini:allow metriclabel.
//
// Suppressions: //gemini:allow metricname|metricunit|metrichelp|metriclabel.
var MetricsConv = &analysis.Analyzer{
	Name: "metricsconv",
	Doc: "enforce gemini_ metric-name prefix, _total counter suffix, " +
		"canonical unit suffixes, non-empty help strings, and bounded label " +
		"values at telemetry registration sites",
	Run: runMetricsConv,
}

// metricNamePrefix is the mandatory namespace of every registered metric.
const metricNamePrefix = "gemini_"

// canonicalUnits are the approved unit suffix tokens (checked against the
// name's trailing tokens, before any _total).
var canonicalUnits = map[string]bool{
	"ms": true, "us": true, "ns": true,
	"watts": true, "mj": true, "bytes": true, "ghz": true, "pct": true,
}

// unitAliases maps non-canonical unit spellings to their canonical token.
// These are pure renames: the recorded values already use the unit, only the
// spelling drifts.
var unitAliases = map[string]string{
	"msec": "ms", "millis": "ms", "milliseconds": "ms", "millisecond": "ms",
	"usec": "us", "micros": "us", "microseconds": "us",
	"nsec": "ns", "nanos": "ns", "nanoseconds": "ns",
	"watt": "watts", "millijoules": "mj",
	"byte": "bytes", "gigahertz": "ghz", "percent": "pct", "percentage": "pct",
}

// rescaleUnits are unit spellings whose canonical replacement changes the
// scale of recorded values; renaming the metric without rescaling its
// observations would lie to every dashboard.
var rescaleUnits = map[string]string{
	"seconds": "ms", "secs": "ms", "sec": "ms", "s": "ms",
	"minutes": "ms", "hours": "ms",
	"joules": "mj", "kw": "watts", "mw": "watts",
	"kb": "bytes", "mb": "bytes", "gb": "bytes",
	"mhz": "ghz", "khz": "ghz", "hz": "ghz",
}

// registryMethods maps telemetry.Registry registration methods to whether
// the metric is a counter (and so must end _total).
var registryMethods = map[string]bool{
	"Counter": true, "Gauge": false, "Histogram": false,
}

func runMetricsConv(pass *analysis.Pass) error {
	allow := buildAllowIndex(pass)
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// The callee may appear as telemetry.L / reg.Counter from outside the
		// package, or as a bare identifier inside internal/telemetry itself.
		var callee *ast.Ident
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			callee = fun.Sel
		case *ast.Ident:
			callee = fun
		default:
			return true
		}
		fn, ok := pass.TypesInfo.Uses[callee].(*types.Func)
		if !ok || fn.Pkg() == nil || !isTelemetryPkg(fn.Pkg().Path()) {
			return true
		}
		if isCounter, isReg := registryMethods[fn.Name()]; isReg && isRegistryMethod(fn) {
			checkRegistration(pass, call, isCounter, allow)
		}
		if fn.Name() == "L" && fn.Type().(*types.Signature).Recv() == nil {
			checkLabelValue(pass, call, allow)
		}
		return true
	})
	return nil
}

func isTelemetryPkg(path string) bool {
	return matchesPkgFrag(path, "internal/telemetry")
}

// isRegistryMethod reports whether fn is a method on telemetry.Registry.
func isRegistryMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// constString resolves e to its compile-time string value (literal or named
// constant), reporting whether it is constant at all.
func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkRegistration applies metricname, metricunit, and metrichelp to one
// Registry.Counter/Gauge/Histogram call.
func checkRegistration(pass *analysis.Pass, call *ast.CallExpr, isCounter bool, allow allowIndex) {
	if len(call.Args) < 2 {
		return
	}
	nameArg, helpArg := call.Args[0], call.Args[1]
	name, nameKnown := constString(pass, nameArg)

	if nameKnown {
		checkName(pass, nameArg, name, isCounter, allow)
	}

	if help, ok := constString(pass, helpArg); ok && strings.TrimSpace(help) == "" {
		if !allow.allows(pass, helpArg.Pos(), "metrichelp") {
			msg := "metric registration has an empty help string: # HELP is the only documentation a scrape consumer sees"
			if nameKnown {
				msg = "metric " + name + " has an empty help string: # HELP is the only documentation a scrape consumer sees"
			}
			pass.Reportf(helpArg.Pos(), "%s", msg)
		}
	}
}

// nameViolation is one convention breach found in a metric name.
type nameViolation struct {
	check   string // metricname or metricunit
	message string
}

// nameViolations lists the convention breaches in name. Each message spells
// the canonical text, except for a wrong unit scale (e.g. _seconds), where a
// rename alone would mislabel the recorded values.
func nameViolations(name string, isCounter bool) []nameViolation {
	var viols []nameViolation

	parts := strings.Split(name, "_")
	last := len(parts) - 1
	if parts[last] == "total" && len(parts) >= 3 {
		last-- // unit token sits before _total on counters
	}
	if last >= 1 {
		tok := parts[last]
		if canon, ok := unitAliases[tok]; ok {
			viols = append(viols, nameViolation{
				check: "metricunit",
				message: "metric " + name + " spells its unit _" + tok +
					": the canonical suffix is _" + canon + " (see the unit table in CONTRIBUTING.md)",
			})
		} else if canon, ok := rescaleUnits[tok]; ok && !canonicalUnits[tok] {
			viols = append(viols, nameViolation{
				check: "metricunit",
				message: "metric " + name + " is scaled in _" + tok + " but the canonical unit is _" + canon +
					": renaming alone would mislabel recorded values, so convert the instrumentation and rename together",
			})
		}
	}

	if isCounter && !strings.HasSuffix(name, "_total") {
		viols = append(viols, nameViolation{
			check:   "metricname",
			message: "counter " + name + " must end in _total (Prometheus counter convention)",
		})
	}
	if !strings.HasPrefix(name, metricNamePrefix) {
		viols = append(viols, nameViolation{
			check: "metricname",
			message: "metric " + name + " lacks the " + metricNamePrefix +
				" namespace prefix required of every registered metric",
		})
	}
	return viols
}

// checkName reports every naming violation not covered by an allow.
func checkName(pass *analysis.Pass, arg ast.Expr, name string, isCounter bool, allow allowIndex) {
	for _, v := range nameViolations(name, isCounter) {
		if !allow.allows(pass, arg.Pos(), v.check) {
			pass.Reportf(arg.Pos(), "%s", v.message)
		}
	}
}

// boundedLabelValue reports whether e can only take values from a bounded
// set: any compile-time constant, or a strconv rendering of a numeric (the
// shard/replica-index idiom — bounded by topology size).
func boundedLabelValue(pass *analysis.Pass, e ast.Expr) bool {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "strconv" {
		return false
	}
	return fn.Name() == "Itoa" || strings.HasPrefix(fn.Name(), "Format")
}

// checkLabelValue applies metriclabel to one telemetry.L(name, value) call.
func checkLabelValue(pass *analysis.Pass, call *ast.CallExpr, allow allowIndex) {
	if len(call.Args) != 2 {
		return
	}
	value := call.Args[1]
	if boundedLabelValue(pass, value) {
		return
	}
	if allow.allows(pass, value.Pos(), "metriclabel") {
		return
	}
	labelName, _ := constString(pass, call.Args[0])
	if labelName == "" {
		labelName = "?"
	}
	pass.Reportf(value.Pos(),
		"label %s value %s is not from a bounded set (constant or strconv rendering of a bounded index): unbounded label values explode time-series cardinality — if the set is genuinely bounded, say why with //gemini:allow metriclabel",
		labelName, exprName(value))
}
