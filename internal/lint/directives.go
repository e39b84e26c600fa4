// Package lint hosts the geminivet analyzer suite: domain-specific static
// checks enforcing the repository's headline invariants — deterministic
// simulation (byte-identical serial-vs-parallel reports), zero-allocation
// hot paths when telemetry is disabled, unit-suffix and float-comparison
// hygiene, DVFS plans built only from validated frequency levels, lock
// discipline on the live serving path, and Prometheus metric naming
// conventions.
//
// Directives recognized in source comments:
//
//	//gemini:hotpath
//	    On a function's doc comment: the function is part of the
//	    per-request fast path and is policed by the hotpath analyzer.
//	//gemini:allow <check> -- <reason>
//	    On (or immediately above) an offending line: suppress the named
//	    check there. The reason is mandatory by convention and enforced in
//	    review; a suppression that no longer suppresses anything is itself
//	    reported by the suite's stale-allow audit (RunPackage).
package lint

import (
	"go/ast"
	"go/token"
	"strings"
	"unicode"

	"gemini/internal/lint/analysis"
)

// HotpathDirective marks a function as allocation-policed.
const HotpathDirective = "//gemini:hotpath"

// allowPrefix introduces a per-line suppression.
const allowPrefix = "//gemini:allow "

// hasDirective reports whether the comment group carries the exact directive
// (directives are whole-line comments with no leading space, per Go
// convention, and survive in Doc.List even though doc.Text strips them).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// ParseAllowDirective decomposes one comment's text into a suppression:
// `//gemini:allow <check> -- <reason>`. ok is false when the comment is not
// an allow directive at all; a directive with an empty check name is not a
// directive. The reason may be empty (the stale audit flags that separately).
func ParseAllowDirective(text string) (check, reason string, ok bool) {
	rest, found := strings.CutPrefix(strings.TrimSpace(text), strings.TrimSpace(allowPrefix))
	if !found {
		return "", "", false
	}
	// The directive word must end exactly at the prefix: "//gemini:allowx"
	// is some other comment, not a malformed directive.
	if rest == "" || !unicode.IsSpace(rune(rest[0])) {
		return "", "", false
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return "", "", false
	}
	check = rest
	if i := strings.IndexFunc(rest, unicode.IsSpace); i >= 0 {
		check = rest[:i]
		rest = strings.TrimSpace(rest[i:])
		if r, found := strings.CutPrefix(rest, "--"); found {
			reason = strings.TrimSpace(r)
		}
	}
	return check, reason, true
}

// allowEntry is one //gemini:allow suppression with its consumption state.
type allowEntry struct {
	check  string
	reason string
	pos    token.Pos
	used   bool
}

// allowIndex records //gemini:allow suppressions by file and line.
type allowIndex map[string]map[int][]*allowEntry

// buildAllowIndex scans every comment of the pass. When the pass carries a
// suite-shared tracker (RunPackage), all analyzers of the package consume
// from that one index, so the stale audit sees every hit.
func buildAllowIndex(pass *analysis.Pass) allowIndex {
	if shared, ok := pass.SuiteAllow.(allowIndex); ok && shared != nil {
		return shared
	}
	return scanAllows(pass.Fset, pass.Files)
}

// scanAllows builds a fresh allow index over files.
func scanAllows(fset *token.FileSet, files []*ast.File) allowIndex {
	idx := make(allowIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				check, reason, ok := ParseAllowDirective(c.Text)
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				m := idx[p.Filename]
				if m == nil {
					m = make(map[int][]*allowEntry)
					idx[p.Filename] = m
				}
				m[p.Line] = append(m[p.Line], &allowEntry{
					check: check, reason: reason, pos: c.Pos(),
				})
			}
		}
	}
	return idx
}

// allows reports whether a suppression for check covers pos: an allow
// comment on the same line or on the line directly above. A match marks the
// entry consumed for the stale audit.
func (idx allowIndex) allows(pass *analysis.Pass, pos token.Pos, check string) bool {
	p := pass.Position(pos)
	m := idx[p.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, e := range m[line] {
			if e.check == check {
				e.used = true
				return true
			}
		}
	}
	return false
}

// checkOwner maps every //gemini:allow check name to the analyzer whose
// diagnostics it suppresses. The stale audit only judges an allow when its
// owning analyzer actually ran, so a subset run never misreports.
var checkOwner = map[string]string{
	"walltime":   "nodeterminism",
	"globalrand": "nodeterminism",
	"maprange":   "nodeterminism",
	"rawsource":  "nodeterminism",

	"hotpath": "hotpath",

	"floatcmp": "unitsafety",
	"units":    "unitsafety",

	"freqliteral": "freqdomain",

	"lockblocking": "locksafety",
	"lockreturn":   "locksafety",
	"atomicmix":    "locksafety",

	"metricname":  "metricsconv",
	"metricunit":  "metricsconv",
	"metrichelp":  "metricsconv",
	"metriclabel": "metricsconv",
}

// All returns the full geminivet suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NoDeterminism, Hotpath, UnitSafety, FreqDomain,
		LockSafety, MetricsConv,
	}
}
