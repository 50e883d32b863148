// Command kloclint is the multichecker for the simulator's
// invariant-enforcing analyzer suite (internal/analysis): the
// checkpatch/sparse analog run by `make lint` and CI. It type-checks
// every lintable package of the module — the root package, cmd/...,
// internal/..., and examples/... — and applies the per-package
// analyzers:
//
//	nodeterminism  no wall-clock time, ambient randomness, or escaping
//	               map-iteration order
//	errnocheck     no discarded errno-style error returns
//
// plus, over the whole module's call graph at once, the module
// analyzer:
//
//	tracereach     Tracer.Emit names are trace catalog constants, and
//	               every catalog constant has a reachable Emit site
//
// A full-suite, whole-module run also audits the //klocs:* marker
// comments: a marker no analyzer needed (stale) or whose name is not
// in the vocabulary (typo) is itself reported, as suppressaudit.
//
// Usage:
//
//	kloclint              # lint the whole module
//	kloclint -list        # show the analyzer suite
//	kloclint -only errnocheck,tracereach
//	kloclint -json        # diagnostics as a JSON array on stdout
//	kloclint -sarif out.sarif   # also write SARIF 2.1.0 for CI upload
//	kloclint internal/fs internal/netsim   # specific package dirs
//
// Exit status: 0 clean, 1 diagnostics (or load failures), 2 flag and
// usage errors — the same convention as klocbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"kloc/internal/analysis"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list the analyzer suite and exit")
		only      = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		jsonOut   = flag.Bool("json", false, "print diagnostics as a JSON array on stdout")
		sarifPath = flag.String("sarif", "", "write diagnostics as SARIF 2.1.0 to this file")
	)
	flag.Usage = usage
	flag.Parse()

	if *list {
		listAnalyzers(os.Stdout)
		return
	}
	pkgAnalyzers, modAnalyzers, err := selectAnalyzers(*only)
	if err != nil {
		usageError(err)
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	wholeModule := len(flag.Args()) == 0
	targets, err := resolveTargets(loader, flag.Args())
	if err != nil {
		usageError(err)
	}
	if !wholeModule && len(modAnalyzers) > 0 && *only != "" {
		usageError(fmt.Errorf("module analyzers need the whole module: drop the package arguments"))
	}

	// The suppression audit is only sound when every analyzer has had
	// its chance to need every marker: full suite, whole module.
	fullSuite := *only == "" && wholeModule
	var audit *analysis.MarkerAudit
	if fullSuite {
		audit = analysis.NewMarkerAudit()
	}

	exit := 0
	var diags []analysis.Diagnostic
	var pkgs []*analysis.Package
	for _, t := range targets {
		pkg, err := loader.Load(t.Dir, t.ImportPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kloclint:", err)
			exit = 1
			continue
		}
		pkgs = append(pkgs, pkg)
		ds, err := analysis.RunAnalyzers(pkg, pkgAnalyzers, audit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kloclint:", err)
			exit = 1
			continue
		}
		diags = append(diags, ds...)
	}
	if wholeModule && len(modAnalyzers) > 0 && exit == 0 {
		mod := analysis.NewModule(pkgs)
		ds, err := analysis.RunModuleAnalyzers(mod, modAnalyzers, audit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kloclint:", err)
			exit = 1
		} else {
			diags = append(diags, ds...)
		}
	}
	if fullSuite && exit == 0 {
		diags = append(diags, analysis.AuditSuppressions(pkgs, audit)...)
	}

	analysis.SortDiagnostics(diags)
	for i := range diags {
		diags[i].Pos.Filename = relPath(loader.ModuleDir, diags[i].Pos.Filename)
	}
	if len(diags) > 0 {
		exit = 1
	}

	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, diags); err != nil {
			fmt.Fprintln(os.Stderr, "kloclint:", err)
			exit = 1
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	os.Exit(exit)
}

// listAnalyzers prints the suite, one analyzer per line, for -list.
func listAnalyzers(w io.Writer) {
	for _, a := range analysis.All() {
		fmt.Fprintf(w, "%-16s %s\n", a.Name, a.Doc)
	}
	for _, a := range analysis.AllModule() {
		fmt.Fprintf(w, "%-16s %s (whole-module)\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "%-16s %s\n", analysis.SuppressAuditName, "stale or unknown //klocs:* markers (full-suite runs only)")
}

// relPath shortens a filename to be module-relative.
func relPath(root, name string) string {
	if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return name
}

// selectAnalyzers resolves -only against both suites.
func selectAnalyzers(only string) ([]*analysis.Analyzer, []*analysis.ModuleAnalyzer, error) {
	allPkg := analysis.All()
	allMod := analysis.AllModule()
	if only == "" {
		return allPkg, allMod, nil
	}
	pkgByName := make(map[string]*analysis.Analyzer, len(allPkg))
	modByName := make(map[string]*analysis.ModuleAnalyzer, len(allMod))
	var names []string
	for _, a := range allPkg {
		pkgByName[a.Name] = a
		names = append(names, a.Name)
	}
	for _, a := range allMod {
		modByName[a.Name] = a
		names = append(names, a.Name)
	}
	var pkgOut []*analysis.Analyzer
	var modOut []*analysis.ModuleAnalyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if a, ok := pkgByName[name]; ok {
			pkgOut = append(pkgOut, a)
			continue
		}
		if a, ok := modByName[name]; ok {
			modOut = append(modOut, a)
			continue
		}
		return nil, nil, fmt.Errorf("unknown analyzer %q (valid: %s)", name, strings.Join(names, ", "))
	}
	if len(pkgOut) == 0 && len(modOut) == 0 {
		return nil, nil, fmt.Errorf("-only selected no analyzers (valid: %s)", strings.Join(names, ", "))
	}
	return pkgOut, modOut, nil
}

// resolveTargets turns the positional arguments (package directories
// relative to the module root or the working directory) into load
// targets; with no arguments the whole module is linted.
func resolveTargets(loader *analysis.Loader, args []string) ([]analysis.Target, error) {
	if len(args) == 0 {
		return analysis.ModuleTargets(loader.ModuleDir, loader.ModulePath)
	}
	var out []analysis.Target
	for _, arg := range args {
		dir := arg
		if !filepath.IsAbs(dir) {
			if _, err := os.Stat(dir); err != nil {
				dir = filepath.Join(loader.ModuleDir, arg)
			}
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(loader.ModuleDir, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("package %s is outside the module", arg)
		}
		ip := loader.ModulePath
		if rel != "." {
			ip = loader.ModulePath + "/" + filepath.ToSlash(rel)
		}
		out = append(out, analysis.Target{Dir: abs, ImportPath: ip})
	}
	return out, nil
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		"usage: kloclint [-list] [-only a,b] [-json] [-sarif file] [package-dir ...]\n\n"+
			"Lints the module's packages with the invariant analyzer suite\n"+
			"(see internal/analysis and DESIGN.md §10). With no package\n"+
			"directories the whole module is linted, including the\n"+
			"module analyzer and the marker suppression audit.\n\nflags:\n")
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kloclint:", err)
	os.Exit(1)
}

func usageError(err error) {
	fmt.Fprintln(os.Stderr, "kloclint:", err)
	fmt.Fprintln(os.Stderr, "run 'kloclint -h' for usage")
	os.Exit(2)
}
