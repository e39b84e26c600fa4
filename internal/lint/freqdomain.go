package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"gemini/internal/lint/analysis"
)

// FreqDomain keeps DVFS plans inside the validated frequency ladder. The cpu
// package defines the platform's level table (cpu.DefaultLevels, clamped by
// Ladder.Clamp); policies and planners must pick from it rather than
// inventing frequencies, or the simulator happily models a clock the
// hardware cannot set. The analyzer flags constant cpu.Freq expressions
// built from numeric literals outside the cpu package itself — e.g.
// `plan.Freq = 2.05` or `cpu.Freq(1.9)` — while leaving the zero value
// (the "unset, use default" sentinel) and test files alone.
//
// Suppression: //gemini:allow freqliteral -- reason.
var FreqDomain = &analysis.Analyzer{
	Name: "freqdomain",
	Doc: "forbid literal cpu.Freq values outside the cpu package's validated " +
		"level table",
	Run: runFreqDomain,
}

// isCPUFreq reports whether t is the cpu package's Freq type.
func isCPUFreq(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Freq" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/cpu")
}

func runFreqDomain(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/cpu") {
		return nil // the ladder's home defines the literals
	}
	allow := buildAllowIndex(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[e]
			if !ok || tv.Value == nil || !isCPUFreq(tv.Type) {
				return true
			}
			// Outermost constant Freq expression: don't double-report its
			// sub-expressions.
			if !containsBasicLit(e) || tv.Value.ExactString() == "0" {
				return false
			}
			if !allow.allows(pass, e.Pos(), "freqliteral") {
				pass.Reportf(e.Pos(),
					"literal frequency %s GHz: pick from the validated ladder (cpu.DefaultLevels / Ladder.Clamp) so plans stay inside real DVFS states",
					tv.Value.String())
			}
			return false
		})
	}
	return nil
}

// containsBasicLit reports whether the expression tree contains a numeric
// literal (as opposed to a named constant like cpu.FMax, which is fine:
// named constants live next to the ladder and change with it).
func containsBasicLit(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.BasicLit); ok {
			found = true
		}
		return !found
	})
	return found
}
