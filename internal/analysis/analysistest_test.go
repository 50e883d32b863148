package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
)

// This file is the analysistest analog for the vendored framework:
// testdata packages under testdata/src/<name> carry deliberate
// violations annotated with the x/tools "// want" convention, and
// CheckExpectations diffs an analyzer's diagnostics against them. The
// go tool never builds testdata trees, so the seeded bugs cannot leak
// into the real binaries.

// wantRe matches one expectation: `// want "pattern"` with optional
// further quoted patterns. Patterns are regular expressions matched
// against the diagnostic message, as in analysistest.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one `// want` entry.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Expectations parses the `// want` comments of a loaded package.
func Expectations(pkg *Package) ([]*expectation, error) {
	var out []*expectation
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(text[idx+len("want "):], -1) {
					// The quoted pattern uses Go-string-ish escaping; the
					// only escape we need is \" for embedded quotes.
					pat := strings.ReplaceAll(m[1], `\"`, `"`)
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %q: %w", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out, nil
}

// CheckExpectations runs the analyzer over the package and reports
// every mismatch between its diagnostics and the package's `// want`
// comments: unexpected diagnostics and unmatched expectations. An
// empty return means the analyzer behaved exactly as annotated.
func CheckExpectations(pkg *Package, a *Analyzer) ([]string, error) {
	diags, err := RunAnalyzers(pkg, []*Analyzer{a}, nil)
	if err != nil {
		return nil, err
	}
	wants, err := Expectations(pkg)
	if err != nil {
		return nil, err
	}
	return diffExpectations(diags, wants), nil
}

// CheckModuleExpectations is CheckExpectations for module analyzers:
// it builds a Module over pkgs, runs the analyzer through the module
// driver path, and diffs the diagnostics against the
// packages' combined `// want` comments.
func CheckModuleExpectations(pkgs []*Package, a *ModuleAnalyzer) ([]string, error) {
	m := NewModule(pkgs)
	diags, err := RunModuleAnalyzers(m, []*ModuleAnalyzer{a}, nil)
	if err != nil {
		return nil, err
	}
	var wants []*expectation
	for _, pkg := range pkgs {
		w, err := Expectations(pkg)
		if err != nil {
			return nil, err
		}
		wants = append(wants, w...)
	}
	return diffExpectations(diags, wants), nil
}

// diffExpectations matches diagnostics against expectations by file
// and line. Each expectation consumes at most one diagnostic, so a
// line that produces two diagnostics needs two `// want` patterns.
func diffExpectations(diags []Diagnostic, wants []*expectation) []string {
	var problems []string
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic at %s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message))
		}
	}
	for _, w := range wants {
		if !w.matched {
			problems = append(problems, fmt.Sprintf("no diagnostic matched want %q at %s:%d", w.pattern.String(), filepath.Base(w.file), w.line))
		}
	}
	return problems
}
