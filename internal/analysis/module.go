package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// This file is the whole-module layer of the framework: where an
// Analyzer sees one package at a time, a ModuleAnalyzer sees every
// loaded package plus the call graph over them, so it can reason
// across call boundaries (a trace event emitted only from a function
// nothing reachable calls). The driver loads the module once, builds
// one Module, and runs the module suite over it.

// A Module is the whole-program view: every loaded package and the
// call graph connecting them.
type Module struct {
	Packages []*Package
	Graph    *CallGraph
	Fset     *token.FileSet

	// fileOwner maps each source filename to its package, so marker
	// lookups can resolve any position.
	fileOwner map[string]*Package
}

// NewModule builds the module view (including the call graph) over
// the loaded packages.
func NewModule(pkgs []*Package) *Module {
	m := &Module{Packages: pkgs, Graph: BuildCallGraph(pkgs), fileOwner: make(map[string]*Package)}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			m.fileOwner[pkg.Fset.Position(file.Pos()).Filename] = pkg
		}
	}
	return m
}

// PackageAt returns the package owning pos.
func (m *Module) PackageAt(pos token.Pos) *Package {
	return m.fileOwner[m.Fset.Position(pos).Filename]
}

// A ModuleAnalyzer describes one whole-module invariant check.
type ModuleAnalyzer struct {
	// Name identifies the analyzer in diagnostics and -only flags.
	Name string
	// Doc is the one-line description shown by kloclint -list.
	Doc string
	// Run executes the check over the module.
	Run func(pass *ModulePass) error
}

// A ModulePass connects one module analyzer to one loaded module.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Module   *Module

	diags *[]Diagnostic
	audit *MarkerAudit
	// markers caches per-package marker tables by marker name.
	markers map[*Package]map[string]markerTable
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Module.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Marked reports whether a "//klocs:<name>" marker covers the line of
// pos, with the same placement rules as Pass.Marked. A positive
// answer is recorded with the pass's audit (when armed): the marker
// suppressed a diagnostic and is therefore not stale.
func (p *ModulePass) Marked(name string, pos token.Pos) bool {
	pkg := p.Module.PackageAt(pos)
	if pkg == nil {
		return false
	}
	if p.markers == nil {
		p.markers = make(map[*Package]map[string]markerTable)
	}
	byName, ok := p.markers[pkg]
	if !ok {
		byName = make(map[string]markerTable)
		p.markers[pkg] = byName
	}
	table, ok := byName[name]
	if !ok {
		table = collectMarkerTable(pkg, name)
		byName[name] = table
	}
	at := p.Module.Fset.Position(pos)
	markerAt, covered := table[markerKey{file: at.Filename, line: at.Line}]
	if covered {
		p.audit.hit(markerAt)
	}
	return covered
}

// RunModuleAnalyzers applies the module analyzers and returns the
// combined diagnostics in deterministic order. audit may be nil.
func RunModuleAnalyzers(m *Module, analyzers []*ModuleAnalyzer, audit *MarkerAudit) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &ModulePass{Analyzer: a, Module: m, diags: &diags, audit: audit}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// AllModule returns the module-analyzer suite in documentation order.
func AllModule() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{TraceReach}
}

// SortDiagnostics orders diagnostics by position then analyzer name,
// so driver output is deterministic.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
