package analysis

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// This file is the suppression audit: markers must earn their keep.
// Every //klocs:<name> comment exists to silence one specific
// diagnostic, with a justification. When the code under a marker is
// refactored — the map range becomes a sorted slice, the sunk error
// starts propagating — the marker survives by inertia and turns into
// misinformation: it documents a suppression that no longer happens
// and silently pre-forgives a future regression at that line.
//
// The audit closes the loop. Analyzers consult Pass.Marked /
// ModulePass.Marked only once a diagnostic is otherwise certain, and
// every positive answer is recorded against the marker comment's own
// location. After the full suite has run, a marker with no recorded
// hit suppressed nothing: AuditSuppressions reports it as stale, and
// a marker whose name is not in the known vocabulary as unknown. The
// audit is only sound over a full-suite, whole-module run (a partial
// -only run would see phantom staleness), so the driver arms it only
// then.

// SuppressAuditName labels audit diagnostics in driver output.
const SuppressAuditName = "suppressaudit"

// knownMarkers is the marker vocabulary the suite consults.
var knownMarkers = map[string]bool{
	"unordered":        true, // nodeterminism: map range is order-insensitive
	"wallclock":        true, // nodeterminism: sanctioned wall-clock read (host-speed measurement only)
	errnoMarker:        true, // errnocheck/errnoflow: error deliberately sunk or anonymous
	"ignore-allocpair": true, // allocpair: teardown via another path
	lifecycleMarker:    true, // lifecycle: ownership transfer the analysis cannot see
	traceReachMarker:   true, // tracereach: catalog entry reserved intentionally
	rngFlowMarker:      true, // rngflow: stream transfer the analysis cannot see
}

// AuditSuppressions scans every marker comment in pkgs and reports
// the ones the recorded run never needed (stale) and the ones whose
// name is not in the suite's vocabulary (unknown, likely a typo that
// silently suppresses nothing). Call it only after the full analyzer
// suite has run with audit armed.
func AuditSuppressions(pkgs []*Package, audit *MarkerAudit) []Diagnostic {
	var diags []Diagnostic
	report := func(pkg *Package, c *ast.Comment, format string, args ...any) {
		d := Diagnostic{
			Pos:      pkg.Fset.Position(c.Pos()),
			Analyzer: SuppressAuditName,
		}
		d.Message = fmt.Sprintf(format, args...)
		diags = append(diags, d)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					name, ok := markerName(c.Text)
					if !ok {
						continue
					}
					if !knownMarkers[name] {
						report(pkg, c, "unknown marker //klocs:%s: not in the suite's vocabulary (%s) — it suppresses nothing", name, knownMarkerList())
						continue
					}
					at := pkg.Fset.Position(c.Pos())
					if !audit.Used(at.Filename, at.Line) {
						report(pkg, c, "stale marker //klocs:%s: no analyzer needed this suppression — the code it excused has changed, remove the marker", name)
					}
				}
			}
		}
	}
	sortDiagnostics(diags)
	return diags
}

// markerName extracts the marker name from a //klocs: comment.
func markerName(text string) (string, bool) {
	const prefix = "//klocs:"
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := text[len(prefix):]
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}

// knownMarkerList renders the vocabulary deterministically.
func knownMarkerList() string {
	names := make([]string, 0, len(knownMarkers))
	for name := range knownMarkers {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
