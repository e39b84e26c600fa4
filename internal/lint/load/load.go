// Package load type-checks this module's packages from source using only the
// standard library, so the geminivet analyzers can run without
// golang.org/x/tools/go/packages (unavailable in the offline build image).
//
// Standard-library imports resolve through go/importer's source importer
// (compiling GOROOT/src on demand); module-internal imports resolve
// recursively through this loader, sharing one token.FileSet and one package
// identity per import path so types compare correctly across packages.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

func init() {
	// The source importer honors go/build's default context. With cgo
	// enabled it would try to preprocess std cgo files (net, os/user) with a
	// C toolchain; every such package has a pure-Go fallback, so force it.
	build.Default.CgoEnabled = false
}

// Package is one loaded, type-checked package.
type Package struct {
	Dir        string
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
}

// Loader loads and memoizes the module's packages.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset *token.FileSet
	std  types.ImporterFrom

	mu   sync.Mutex
	pkgs map[string]*Package // by import path
	// loading guards against import cycles (invalid Go, but fail cleanly).
	loading map[string]bool
}

// NewLoader creates a loader for the module rooted at root (a directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("load: source importer is not an ImporterFrom")
	}
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        std,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory with a go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("load: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(strings.Trim(strings.TrimSpace(rest), `"`)), nil
		}
	}
	return "", fmt.Errorf("load: no module directive in %s", gomod)
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// inModule reports whether importPath names a package of the loaded module.
func (l *Loader) inModule(importPath string) bool {
	return importPath == l.ModulePath || strings.HasPrefix(importPath, l.ModulePath+"/")
}

// ModuleFiles returns the parsed files (comments included) of a package of
// the module, and nil for an import path outside it: what an analyzer needs
// to read a callee's annotations. Anything an analyzed package imports was
// loaded to type-check it, so this is a lookup in the memo, not a second
// parse.
func (l *Loader) ModuleFiles(importPath string) []*ast.File {
	if !l.inModule(importPath) {
		return nil
	}
	p, err := l.Load(importPath)
	if err != nil {
		return nil
	}
	return p.Files
}

// DirFor maps a module import path to its directory.
func (l *Loader) DirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// ImportPathFor maps a directory inside the module to its import path.
func (l *Loader) ImportPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("load: %s is outside module %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// ListPackages returns the import paths of every package in the module, in
// sorted order (the ./... set). testdata, hidden, and vendor-style
// directories are skipped, matching the go tool's pattern expansion.
func (l *Loader) ListPackages() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				ip, err := l.ImportPathFor(path)
				if err != nil {
					return err
				}
				out = append(out, ip)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// Load type-checks the package at the given module import path (memoized).
// Test files are excluded: the analyzers only police production code.
func (l *Loader) Load(importPath string) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.load(importPath)
}

func (l *Loader) load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("load: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir := l.DirFor(importPath)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, "_") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, filepath.Join(dir, n))
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	p, err := l.check(importPath, dir, names)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = p
	return p, nil
}

// CheckFiles type-checks an explicit file list under a synthetic import path
// (the linttest fixture entry point). The result is not memoized and does not
// shadow real module packages.
func (l *Loader) CheckFiles(importPath, dir string, filenames []string) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.check(importPath, dir, filenames)
}

func (l *Loader) check(importPath, dir string, filenames []string) (*Package, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	conf := types.Config{
		Importer: importerFunc(func(path, srcDir string) (*types.Package, error) {
			return l.importPkg(path, srcDir)
		}),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
		Sizes: types.SizesFor("gc", build.Default.GOARCH),
	}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", importPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", importPath, err)
	}
	return &Package{Dir: dir, ImportPath: importPath, Fset: l.fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}

// importPkg resolves one import: module-internal paths load from source via
// this loader; everything else (the standard library) goes through the
// source importer.
func (l *Loader) importPkg(path, srcDir string) (*types.Package, error) {
	if l.inModule(path) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.ImportFrom(path, srcDir, 0)
}

// importerFunc adapts a function to types.ImporterFrom.
type importerFunc func(path, srcDir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) {
	return f(path, "")
}

func (f importerFunc) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, srcDir)
}
