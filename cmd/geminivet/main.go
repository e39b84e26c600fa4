// Command geminivet runs the gemini lint suite (internal/lint) over packages
// of this module: nodeterminism, hotpath, unitsafety, freqdomain, locksafety,
// metricsconv, plus the suite-level stale-suppression audit (an
// //gemini:allow that suppresses nothing is itself an error).
//
//	go run ./cmd/geminivet ./...
//	go run ./cmd/geminivet ./internal/sim ./internal/cpu
//
// Arguments are package patterns (dir, ./dir, dir/...); there are no flags.
// Packages are type-checked from source through internal/lint/load and
// analyzed by lint.RunModule, the call TestRepoIsClean makes inside
// `go test ./...`. Diagnostics go to stderr as
// file:line:col: message [analyzer], paths relative to the working
// directory; the exit status is 2 when any diagnostic is reported, matching
// go vet, and 1 when the packages cannot be loaded.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gemini/internal/lint"
	"gemini/internal/lint/analysis"
	"gemini/internal/lint/load"
)

func main() {
	if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: geminivet <packages>   (dir, ./dir, dir/...; no flags)")
		os.Exit(2)
	}
	n, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "geminivet:", err)
		os.Exit(1)
	}
	if n > 0 {
		os.Exit(2)
	}
}

// run analyzes the packages the patterns name, prints each diagnostic to
// stderr and returns how many there were.
func run(patterns []string) (int, error) {
	wd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	root, err := load.FindModuleRoot(wd)
	if err != nil {
		return 0, err
	}
	loader, err := load.NewLoader(root)
	if err != nil {
		return 0, err
	}
	paths, err := expandPatterns(loader, wd, patterns)
	if err != nil {
		return 0, err
	}
	n := 0
	err = lint.RunModule(loader, paths, func(d analysis.Diagnostic) {
		p := loader.Fset().Position(d.Pos)
		if rel, err := filepath.Rel(wd, p.Filename); err == nil {
			p.Filename = rel
		}
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", p, d.Message, d.Analyzer)
		n++
	})
	return n, err
}

// expandPatterns resolves go-style package patterns (dir, ./dir, dir/...)
// against the module.
func expandPatterns(loader *load.Loader, wd string, patterns []string) ([]string, error) {
	all, err := loader.ListPackages()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	add := func(ip string) {
		if !seen[ip] {
			seen[ip] = true
			out = append(out, ip)
		}
	}
	for _, pat := range patterns {
		dir, recursive := strings.CutSuffix(pat, "/...")
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(wd, dir)
		}
		ip, err := loader.ImportPathFor(dir)
		if err != nil {
			return nil, err
		}
		if !recursive {
			add(ip)
			continue
		}
		matched := false
		for _, p := range all {
			if p == ip || strings.HasPrefix(p, ip+"/") {
				add(p)
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("no packages match %q", pat)
		}
	}
	sort.Strings(out)
	return out, nil
}
