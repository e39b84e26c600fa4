// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic),
// just large enough to host the geminivet analyzer suite. The container this
// repo builds in has no module proxy access, so the real x/tools framework
// cannot be vendored; the API mirrors it closely enough that swapping the
// import path is a mechanical change if x/tools ever becomes available.
//
// Unsupported: suggested fixes, facts and sub-analyzer requirements — the
// geminivet analyzers need none of them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid Go
	// identifier.
	Name string
	// Doc is the help text: first line is a one-line summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one reported problem.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one package's parsed and type-checked view to an analyzer.
// The driver's loader leaves _test.go files out: the analyzers enforce
// production-path invariants, and tests may freely use wall clocks, literal
// frequencies, and exact float comparisons against deterministic outputs.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic as it is found.
	Report func(Diagnostic)

	// ModuleFiles, when non-nil, returns the parsed files (comments included)
	// of another package of the module under analysis, and nil for a path
	// outside the module. The driver answers from the packages its loader
	// already parsed; a pass without one cannot see past its own package.
	ModuleFiles func(pkgPath string) []*ast.File

	// SuiteAllow, when non-nil, is the suite-shared //gemini:allow tracker
	// (managed by the lint package): all analyzers of one package run consume
	// from one index so the stale-suppression audit can see which allows
	// never fired. Nil when an analyzer runs in isolation.
	SuiteAllow any
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Position resolves pos against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// Inspect walks every file of the pass in depth-first order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// FuncForPos returns the innermost function declaration enclosing pos in
// file, or nil.
func FuncForPos(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
