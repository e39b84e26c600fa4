// Package linttest runs lint analyzers over fixture source and checks their
// diagnostics against `// want "regexp"` expectations, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract on the stdlib-only
// analysis framework in this module.
//
// A fixture directory holds one package of .go files. Each line that should
// trigger a diagnostic ends with `// want "re"`; the regexp must match the
// diagnostic message reported on that line. Multiple expectations on one
// line are space-separated quoted regexps. Diagnostics with no matching
// expectation, and expectations with no matching diagnostic, both fail the
// test.
//
// Analyzers run through lint.RunPackage, so fixtures also exercise the
// suite-level machinery: //gemini:allow suppressions are tracked across the
// whole analyzer set and the stale-suppression audit reports (as analyzer
// "staleallow") just like in CI.
package linttest

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"gemini/internal/lint"
	"gemini/internal/lint/analysis"
	"gemini/internal/lint/load"
)

// wantRe pulls the quoted regexps out of a // want comment: double-quoted
// or backquoted, matching analysistest.
var wantRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// Run loads the fixture package rooted at dir, applies the analyzers as one
// suite (shared allow tracking, stale-suppression audit), and reports
// mismatches through t. The fixture is type-checked against the real module
// (fixtures may import gemini/internal/cpu etc.), under a synthetic import
// path chosen to exercise the analyzer's package gating.
func Run(t *testing.T, loader *load.Loader, dir, importPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkg, files := loadFixture(t, loader, dir, importPath)
	expects := parseExpectations(t, files)

	var diags []analysis.Diagnostic
	err := lint.RunPackage(loader, pkg, analyzers, func(d analysis.Diagnostic) { diags = append(diags, d) })
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}

	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		matched := false
		for _, e := range expects {
			if !e.hit && e.file == p.Filename && e.line == p.Line && e.re.MatchString(d.Message) {
				e.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic from %s: %s", p.Filename, p.Line, d.Analyzer, d.Message)
		}
	}
	for _, e := range expects {
		if !e.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.raw)
		}
	}
}

// loadFixture reads and type-checks the fixture package in dir.
func loadFixture(t *testing.T, loader *load.Loader, dir, importPath string) (*load.Package, []string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatalf("linttest: no fixture files in %s", dir)
	}
	pkg, err := loader.CheckFiles(importPath, dir, files)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	return pkg, files
}

// parseExpectations scans the fixture files for // want comments.
func parseExpectations(t *testing.T, files []string) []*expectation {
	t.Helper()
	var out []*expectation
	for _, fn := range files {
		data, err := os.ReadFile(fn)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			spec := line[idx+len("// want "):]
			ms := wantRe.FindAllStringSubmatch(spec, -1)
			if len(ms) == 0 {
				t.Fatalf("%s:%d: malformed want comment: %s", fn, i+1, spec)
			}
			for _, m := range ms {
				pat := m[1]
				if m[2] != "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", fn, i+1, pat, err)
				}
				out = append(out, &expectation{file: fn, line: i + 1, re: re, raw: pat})
			}
		}
	}
	return out
}

// MustLoader builds a loader for the enclosing module, failing the test on
// error. It resolves the module root from the test's working directory.
func MustLoader(t *testing.T) *load.Loader {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := load.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	l, err := load.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// Fixture returns the absolute path of a testdata fixture directory relative
// to the test's working directory.
func Fixture(t *testing.T, elems ...string) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(append([]string{wd, "testdata"}, elems...)...)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("linttest: fixture missing: %v", err)
	}
	return p
}
