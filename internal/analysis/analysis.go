// Package analysis is the simulator's invariant-enforcing static
// analysis suite — the checkpatch/sparse analog for this codebase. The
// whole reproduction rests on properties no compiler checks: runs must
// be deterministic in virtual time (the trace plane promises
// byte-identical exports at a fixed seed), errno-style errors from the
// fault plane must not be dropped, and trace events must come from the
// registered catalog.
//
// Two per-package analyzers enforce those invariants over one package
// at a time:
//
//   - nodeterminism: forbids wall-clock time, global math/rand, and
//     map-iteration order escaping into simulation state or output
//     (internal/sim's RNG is the only sanctioned randomness source);
//   - errnocheck: forbids silently discarding error returns from the
//     module's alloc/fs/blockdev/netsim/pressure paths.
//
// One module analyzer reasons across call boundaries, over a
// whole-module call graph (callgraph.go):
//
//   - tracereach: every Tracer.Emit site uses a constant from the
//     internal/trace catalog, and every catalog constant has an Emit
//     site reachable from the module's entry surface.
//
// That errors keep their errno and every allocation is freed on every
// path, error paths included, is checked at runtime instead: the
// sanitizer in internal/alloc and the harness's fault-table test, in
// which a fault-armed run fails on any error that carries no errno.
//
// A full-suite run also audits the suppression markers themselves
// (suppressaudit.go): analyzers consult Marked only once a diagnostic
// is otherwise certain, so a marker that records no hit suppressed
// nothing and is reported as stale.
//
// Each analyzer stays only while it catches a defect no other gate
// (tests, golden digests, eval identity, the sanitizer) catches; the
// census behind that rule is in DESIGN.md §10.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic, a multichecker driver in
// cmd/kloclint, and testdata packages exercised the analysistest way)
// but is self-contained on the standard library's go/ast, go/types,
// and go/importer: the build environment is hermetic, so the suite
// must not pull module dependencies. Swapping the vendored framework
// for the x/tools one is a mechanical change if the dependency ever
// becomes available.
//
// False positives are silenced in place with marker comments, each of
// which should carry a justification:
//
//	//klocs:unordered         — this map range is order-insensitive
//	//klocs:wallclock         — a host-speed measurement, never simulation input
//	//klocs:ignore-errno      — this error is deliberately sunk
//	//klocs:ignore-tracereach — catalog entry reserved intentionally
//
// DESIGN.md §10 documents what each analyzer guards and its kernel
// analog; the runtime complement (the KASAN/kmemleak-analog sanitizer)
// lives in internal/alloc.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// An Analyzer describes one invariant check. Run inspects a loaded,
// type-checked package through the Pass and reports violations.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only flags.
	Name string
	// Doc is the one-line description shown by kloclint -list.
	Doc string
	// Run executes the check. Diagnostics go through pass.Reportf; the
	// error return is for analyzer-internal failures only.
	Run func(pass *Pass) error
}

// A Diagnostic is one reported violation, carried with its resolved
// file position so drivers can sort and print deterministically.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass connects one analyzer to one loaded package.
type Pass struct {
	Analyzer *Analyzer
	// Pkg is the loaded package under analysis: syntax, type
	// information, and position data.
	Pkg *Package

	diags *[]Diagnostic
	audit *MarkerAudit
	// markers maps marker name -> marker table, built lazily from the
	// package's comments.
	markers map[string]markerTable
}

// markerKey identifies one source line.
type markerKey struct {
	file string
	line int
}

// A markerTable maps each covered source line to the location of the
// marker comment covering it.
type markerTable map[markerKey]markerKey

// A MarkerAudit records which marker comments actually suppressed a
// diagnostic during a run. Analyzers consult Marked only once a
// diagnostic is otherwise certain, so a marker with no recorded hit
// after the full suite has run no longer suppresses anything — it is
// stale, and the suppression audit flags it.
type MarkerAudit struct {
	used map[markerKey]bool
}

// NewMarkerAudit returns an empty audit ready to record marker hits.
func NewMarkerAudit() *MarkerAudit {
	return &MarkerAudit{used: make(map[markerKey]bool)}
}

// hit records that the marker comment at loc suppressed a diagnostic.
// Safe on a nil audit.
func (a *MarkerAudit) hit(loc markerKey) {
	if a != nil {
		a.used[loc] = true
	}
}

// Used reports whether the marker comment at file:line suppressed any
// diagnostic.
func (a *MarkerAudit) Used(file string, line int) bool {
	return a != nil && a.used[markerKey{file: file, line: line}]
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Marked reports whether a "//klocs:<name>" marker comment covers the
// line of pos. A marker covers its own line (trailing comment) and,
// when it stands alone, the line after it — the same placement rules
// as nolint-style directives. Analyzers must consult Marked only once
// a diagnostic is otherwise certain: a positive answer is recorded
// with the pass's audit (when armed) as proof the marker still earns
// its keep.
func (p *Pass) Marked(name string, pos token.Pos) bool {
	if p.markers == nil {
		p.markers = make(map[string]markerTable)
	}
	table, ok := p.markers[name]
	if !ok {
		table = collectMarkerTable(p.Pkg, name)
		p.markers[name] = table
	}
	at := p.Pkg.Fset.Position(pos)
	markerAt, covered := table[markerKey{file: at.Filename, line: at.Line}]
	if covered {
		p.audit.hit(markerAt)
	}
	return covered
}

// collectMarkerTable builds the covered-line table for one marker
// name over one package.
func collectMarkerTable(pkg *Package, name string) markerTable {
	table := make(markerTable)
	want := "//klocs:" + name
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if c.Text != want && !strings.HasPrefix(c.Text, want+" ") {
					continue
				}
				at := pkg.Fset.Position(c.Pos())
				loc := markerKey{file: at.Filename, line: at.Line}
				table[loc] = loc
				// A standalone marker annotates the next line.
				table[markerKey{file: at.Filename, line: at.Line + 1}] = loc
			}
		}
	}
	return table
}

// RunAnalyzers applies the analyzers to the package and returns the
// combined diagnostics sorted by position then analyzer name, so
// driver output is deterministic. Every suppression an analyzer honors
// is logged with audit, feeding the stale-marker report of
// AuditSuppressions; audit may be nil.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, audit *MarkerAudit) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags, audit: audit}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// All returns the full analyzer suite in documentation order.
func All() []*Analyzer {
	return []*Analyzer{NoDeterminism, ErrnoCheck}
}

// inspectFiles walks every file in the package.
func inspectFiles(pkg *Package, fn func(ast.Node) bool) {
	for _, file := range pkg.Files {
		ast.Inspect(file, fn)
	}
}
