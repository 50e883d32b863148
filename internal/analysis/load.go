package analysis

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
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("kloc/internal/fs"); testdata packages
	// get synthetic paths.
	Path string
	Fset *token.FileSet
	// Files holds the parsed non-test sources, comments included.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module plus
// their standard-library dependencies. Module-internal imports resolve
// by path mapping against the module root; everything else goes
// through the compiler's source importer, which type-checks the
// standard library from GOROOT sources — no go tool invocation, no
// network, no export-data files. That keeps kloclint runnable in the
// same hermetic environment as the simulator itself.
type Loader struct {
	// ModuleDir is the absolute module root (the go.mod directory).
	ModuleDir string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	fset *token.FileSet
	std  types.ImporterFrom
	// pkgs memoizes type-checked packages by import path so shared
	// dependencies check once per loader.
	pkgs map[string]*types.Package
	// full memoizes module-internal packages with their syntax and
	// types.Info. Module packages are always checked in full so a
	// package loaded as a dependency and the same package loaded for
	// analysis share one set of type objects — the call graph resolves
	// cross-package references by object identity and would silently
	// classify every module call as external if the two loads diverged.
	full map[string]*Package
	// loading guards against import cycles.
	loading map[string]bool
}

// NewLoader builds a loader rooted at the module containing dir,
// reading the module path from go.mod.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	return &Loader{
		ModuleDir:  root,
		ModulePath: modPath,
		fset:       fset,
		std:        std,
		pkgs:       make(map[string]*types.Package),
		full:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
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
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// type-checked from source under the module root; all other paths are
// delegated to the standard library's source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	moduleDir, ok := l.moduleDirOf(path)
	if !ok {
		pkg, err := l.std.ImportFrom(path, dir, mode)
		if err != nil {
			return nil, err
		}
		l.pkgs[path] = pkg
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	pkg, err := l.check(moduleDir, path, newTypesInfo())
	if err != nil {
		return nil, err
	}
	l.full[path] = pkg
	l.pkgs[path] = pkg.Types
	return pkg.Types, nil
}

// newTypesInfo allocates the info maps one full check populates.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// moduleDirOf maps a module-internal import path to its directory.
func (l *Loader) moduleDirOf(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Load parses and fully type-checks the package in dir as importPath,
// returning syntax and type information for analysis. Unlike Import,
// the result carries ASTs, comments, and a populated types.Info.
func (l *Loader) Load(dir, importPath string) (*Package, error) {
	// A module package already checked (directly or as a dependency of
	// an earlier target) is returned as-is: re-checking would mint a
	// second set of type objects and break cross-package identity.
	if pkg := l.full[importPath]; pkg != nil {
		return pkg, nil
	}
	pkg, err := l.check(dir, importPath, newTypesInfo())
	if err != nil {
		return nil, err
	}
	// Register so later targets importing this package reuse the
	// checked result instead of re-checking from source.
	if _, ok := l.moduleDirOf(importPath); ok {
		l.full[importPath] = pkg
		l.pkgs[importPath] = pkg.Types
	}
	return pkg, nil
}

// check parses the non-test sources of dir and type-checks them. When
// info is nil the package is being loaded as a dependency and only the
// types.Package is retained.
func (l *Loader) check(dir, importPath string, info *types.Info) (*Package, error) {
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", importPath, err)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", importPath, err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// goFilesIn lists the buildable non-test Go files of dir in sorted
// order, applying the default build constraints.
func goFilesIn(dir string) ([]string, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	return names, nil
}

// ModuleTargets enumerates the lintable package directories of the
// module rooted at root: every directory holding buildable non-test Go
// files, skipping testdata trees (analyzer fixtures contain deliberate
// violations), hidden directories, and vendored code. Results are
// (dir, importPath) pairs in deterministic path order.
type Target struct {
	Dir        string
	ImportPath string
}

// ModuleTargets walks the module and returns its lintable packages.
func ModuleTargets(root, modPath string) ([]Target, error) {
	var targets []Target
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		name := fi.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := goFilesIn(path); err != nil {
			return nil // not a buildable package: keep walking
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		targets = append(targets, Target{Dir: path, ImportPath: ip})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	return targets, nil
}
