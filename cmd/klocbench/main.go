// Command klocbench regenerates the paper's performance tables and
// figures (Fig 4, Table 6, Fig 5a/5b/5c, Fig 6, the §7.3 prefetch
// study, the design ablations, and the fault/pressure robustness
// tables), or executes one raw run with optional tracing.
//
// Usage:
//
//	klocbench -exp fig4                 # one experiment
//	klocbench -exp fig4,fig5a           # a comma-separated list
//	klocbench -exp all                  # the full evaluation
//	klocbench -exp all,cluster,chaos    # 'all' composes with the extras
//	klocbench -exp cluster              # serving-plane sweep -> BENCH_cluster.json
//	klocbench -exp chaos                # chaos campaign -> BENCH_chaos.json
//	klocbench -exp chaos -quick         # fixed-seed 50-schedule smoke campaign
//	klocbench -exp chaos -replay CHAOS_repro_X.json  # re-run a minimized repro
//	klocbench -exp fig4 -quick          # reduced duration
//	klocbench -exp fig2a,fig2b,fig2c,fig2d -workloads rocksdb,redis  # Fig 2 on a subset
//	klocbench -run -policy klocs -workload rocksdb   # one raw run
//	klocbench -run -trace run.json      # raw run + Chrome trace export
//	klocbench -run -sanitize            # raw run + KASAN/kmemleak report
//
// Flag-parse and flag-validation errors exit 2; runtime errors exit 1;
// -sanitize findings exit 1 too (a dirty report is a failed run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"kloc"
	"kloc/internal/trace"
)

func main() {
	c := defineFlags(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	names, err := checkFlags(flag.CommandLine, c)
	if err != nil {
		usageError(err)
	}

	opts := kloc.DefaultOptions()
	if c.quick {
		opts = kloc.QuickOptions()
	}
	opts.Seed = c.seed
	opts.ScaleDiv = c.scale
	if c.durationMS > 0 {
		opts.Duration = kloc.Duration(c.durationMS) * kloc.Millisecond
	}
	opts.Workloads = splitList(c.workloads)

	if c.rawRun {
		cfg := kloc.RunConfig{
			PolicyName: c.policy,
			Workload:   c.workload,
			ScaleDiv:   opts.ScaleDiv,
			Seed:       opts.Seed,
			Duration:   opts.Duration,
		}
		if c.optane {
			cfg.Platform = kloc.Optane
			cfg.MoveTaskAtFrac = 0.1
		}
		cfg.Sanitize = c.sanitize
		if c.traceFile != "" {
			cfg.Trace = &kloc.TraceConfig{Events: splitList(c.traceEvents)}
		}
		res, err := kloc.Run(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("policy=%s workload=%s\n", res.Policy, res.Workload)
		fmt.Printf("  ops=%d virtual-time=%v throughput=%.0f ops/s\n", res.Ops, res.VirtualTime, res.Throughput)
		fmt.Printf("  refs: kernel=%d app=%d\n", res.KernRefs, res.AppRefs)
		fmt.Printf("  migrations: total=%d demotions=%d promotions=%d\n",
			res.Mem.MigratedPages, res.Mem.Demotions, res.Mem.Promotions)
		if res.KlocMetadataBytes > 0 {
			fmt.Printf("  kloc metadata: %d bytes (scaled), fast-path hit rate %.2f\n",
				res.KlocMetadataBytes, res.FastPathHitRate)
		}
		if res.Trace != nil {
			printTraceSummary(res.TraceStats)
			if err := writeTrace(res.Trace, c.traceFile); err != nil {
				fatal(err)
			}
			fmt.Printf("  trace written to %s\n", c.traceFile)
		}
		if res.Sanitize != nil {
			fmt.Print("  " + strings.ReplaceAll(strings.TrimSuffix(res.Sanitize.String(), "\n"), "\n", "\n  ") + "\n")
			if !res.Sanitize.Clean() {
				fatal(fmt.Errorf("sanitizer reported %d findings and %d leaks",
					res.Sanitize.TotalFindings, res.Sanitize.TotalLeaks))
			}
		}
		return
	}

	for _, name := range names {
		switch name {
		case "cluster":
			if err := runClusterBench(opts, c.benchOut); err != nil {
				fatal(fmt.Errorf("cluster: %w", err))
			}
		case "chaos":
			if c.replayFile != "" {
				if err := runChaosReplay(c.replayFile); err != nil {
					fatal(fmt.Errorf("chaos replay: %w", err))
				}
				continue
			}
			if err := runChaosCampaign(c.chaosTarget, c.seed, c.quick, c.chaosOut); err != nil {
				fatal(fmt.Errorf("chaos: %w", err))
			}
		default:
			table, err := kloc.Experiment(name, opts)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			fmt.Println(table)
		}
	}
}

// runChaosCampaign executes a chaos campaign and writes the summary
// plus one replay artifact per violation. A violating campaign exits 1:
// the artifacts are the bug reports.
func runChaosCampaign(target string, seed uint64, quick bool, out string) error {
	cfg := kloc.ChaosConfig{Target: target, Seed: seed}
	if !quick {
		// The full campaign samples four times the smoke campaign's
		// schedules with denser injections.
		cfg.Schedules = 200
		cfg.MaxInjections = 8
	}
	sum, arts, err := kloc.RunChaosCampaign(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("chaos: target=%s seed=%d schedules=%d injections=%d determinism-runs=%d\n",
		sum.Target, sum.Seed, sum.Schedules, sum.Injections, sum.DeterminismRuns)
	fmt.Printf("chaos: oracles: %s\n", strings.Join(sum.OraclesChecked, ", "))
	for _, art := range arts {
		data, err := art.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(art.Filename(), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, v := range sum.Violations {
		fmt.Printf("chaos: VIOLATION schedule=%d oracle=%s %s\n", v.ScheduleIndex, v.Oracle, v.Detail)
		fmt.Printf("chaos:   minimized %d -> %d injections in %d probes; repro: %s\n",
			v.OriginalInjections, v.MinimizedInjections, v.MinimizeProbes, v.Artifact)
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("chaos: summary written to %s\n", out)
	if !sum.Clean {
		return fmt.Errorf("%d invariant violations (repro artifacts written)", len(sum.Violations))
	}
	fmt.Println("chaos: campaign clean")
	return nil
}

// runChaosReplay re-executes a minimized repro artifact twice and
// verifies the violation reproduces with byte-identical traces.
func runChaosReplay(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	art, err := kloc.ParseChaosArtifact(data)
	if err != nil {
		return err
	}
	fmt.Printf("chaos: replaying %s: target=%s oracle=%s injections=%d\n",
		path, art.Target, art.Oracle, len(art.Schedule.Injections))
	rep, err := kloc.ChaosReplay(art)
	if err != nil {
		return err
	}
	if rep.Violation != nil {
		fmt.Printf("chaos: reproduced oracle=%s %s\n", rep.Violation.Oracle, rep.Violation.Detail)
	}
	fmt.Printf("chaos: deterministic=%v trace-fnv=%016x (artifact pinned %016x)\n",
		rep.Deterministic, rep.TraceFNV, art.TraceFNV)
	switch {
	case rep.Violation == nil:
		return fmt.Errorf("violation did not reproduce (fixed, or the substrate changed)")
	case !rep.OracleMatch:
		return fmt.Errorf("reproduced %s but the artifact pinned %s", rep.Violation.Oracle, art.Oracle)
	case !rep.Deterministic:
		return fmt.Errorf("traces diverged across re-execution")
	case !rep.TraceMatch:
		return fmt.Errorf("violation reproduced but the trace drifted from the artifact's fingerprint")
	}
	fmt.Println("chaos: repro confirmed, byte-identical across two executions")
	return nil
}

// runClusterBench executes the cluster serving-plane sweep and writes
// the machine-readable report beside the rendered table.
func runClusterBench(opts kloc.Options, out string) error {
	table, rep, err := kloc.ClusterBench(opts)
	if err != nil {
		return err
	}
	fmt.Println(table)
	data, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("cluster sweep written to %s\n", out)
	return nil
}

// usage enumerates every flag; the satellite fix for the old help text
// that documented only a subset.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		"usage: klocbench -exp <id>[,<id>...] [-quick] [-duration-ms N] [-seed N] [-scale N] [-workloads W[,W...]]\n"+
			"       klocbench -exp chaos [-quick] [-chaos-target T] [-replay FILE]\n"+
			"       klocbench -run [-policy P] [-workload W] [-optane] [-sanitize] [-trace FILE [-trace-events GLOBS]]\n\n"+
			"experiments: %s\n"+
			"'all' expands to the paper experiments above and composes with the extras\n"+
			"('all,cluster,chaos' appends them). The extras are excluded from 'all':\n"+

			"  cluster  serving-plane sweep -> BENCH_cluster.json (see -bench-out)\n"+
			"  chaos    fault-schedule fuzzing campaign -> BENCH_chaos.json plus one\n"+
			"           CHAOS_repro_*.json replay artifact per invariant violation;\n"+
			"           violations exit 1 (see -chaos-target, -chaos-out, -replay)\n\nflags:\n",
		strings.Join(kloc.ExperimentNames(), ", "))
	flag.PrintDefaults()
}

// printTraceSummary renders the per-event and per-context trace stats.
func printTraceSummary(s kloc.TraceStats) {
	fmt.Printf("  trace: emitted=%d dropped=%d (ring kept %d)\n",
		s.Emitted, s.Dropped, s.Emitted-s.Dropped)
	for _, nc := range s.ByName {
		fmt.Printf("    %-24s %d\n", nc.Name, nc.Count)
	}
	if len(s.Contexts) > 0 {
		fmt.Printf("  busiest KLOC contexts (events per %v window):\n", s.Window)
		for _, c := range s.Contexts {
			fmt.Printf("    ctx=%-6d total=%d windows=%v\n", c.Ctx, c.Total, c.Windows)
		}
	}
}

// writeTrace exports the tracer: Chrome trace-event JSON for .json
// files, the text log otherwise.
func writeTrace(t *kloc.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = t.WriteChrome(f)
	} else {
		err = t.WriteText(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// resolveExperiments expands the -exp flag into experiment IDs: a
// single ID, a comma-separated list, or "all" — which expands to the
// paper experiments and composes with the extras ("all,cluster,chaos"
// appends both). Unknown IDs are rejected up front with the valid set,
// so a typo fails fast instead of after an hour of earlier
// experiments. "cluster" and "chaos" are addressable by name but
// deliberately outside "all": the sweep reports serving-plane metrics
// (goodput, availability) and the campaign hunts invariant violations
// — neither regenerates a paper figure.
func resolveExperiments(exp string) ([]string, error) {
	valid := map[string]bool{"cluster": true, "chaos": true}
	for _, n := range kloc.ExperimentNames() {
		valid[n] = true
	}
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, n := range strings.Split(exp, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if n == "all" {
			for _, e := range kloc.ExperimentNames() {
				add(e)
			}
			continue
		}
		if !valid[n] {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, cluster, chaos, or 'all')",
				n, strings.Join(kloc.ExperimentNames(), ", "))
		}
		add(n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no experiment named (valid: %s, cluster, chaos, or 'all')",
			strings.Join(kloc.ExperimentNames(), ", "))
	}
	return names, nil
}

// Flag defaults that checkFlags must accept.
const (
	defaultSeed  = 42
	defaultScale = 64
)

// cliFlags holds klocbench's flag values.
type cliFlags struct {
	exp, workloads           string
	quick                    bool
	durationMS, scale        int
	seed                     uint64
	rawRun, optane, sanitize bool
	policy, workload         string
	traceFile, traceEvents   string
	benchOut                 string
	chaosTarget, chaosOut    string
	replayFile               string
}

// defineFlags registers klocbench's flags on fs.
func defineFlags(fs *flag.FlagSet) *cliFlags {
	c := &cliFlags{}
	fs.StringVar(&c.exp, "exp", "", "experiment id ("+strings.Join(kloc.ExperimentNames(), ", ")+", a comma-separated list, or 'all')")
	fs.BoolVar(&c.quick, "quick", false, "reduced virtual duration (faster, noisier)")
	fs.IntVar(&c.durationMS, "duration-ms", 0, "override measured duration in virtual milliseconds (0 keeps the default)")
	fs.Uint64Var(&c.seed, "seed", defaultSeed, "simulation seed (nonzero)")
	fs.IntVar(&c.scale, "scale", defaultScale, "platform scale divisor (Table 4 sizes / scale, at least 1)")

	fs.StringVar(&c.workloads, "workloads", "", "with -exp: comma-separated workloads to run instead of each experiment's defaults (fig5b, prefetch and ablations only narrow theirs)")

	fs.BoolVar(&c.rawRun, "run", false, "execute one raw run instead of an experiment")
	fs.StringVar(&c.policy, "policy", "klocs", "policy for -run")
	fs.StringVar(&c.workload, "workload", "rocksdb", "workload for -run")
	fs.BoolVar(&c.optane, "optane", false, "use the Optane Memory-Mode platform for -run")

	fs.StringVar(&c.traceFile, "trace", "", "with -run: write the run's trace to this file (.json = Chrome trace-event format, else text; see OBSERVABILITY.md)")
	fs.StringVar(&c.traceEvents, "trace-events", "", "with -trace: comma-separated event-name patterns to trace (\"alloc.*,oom.spill\"); empty traces the full catalog")
	fs.BoolVar(&c.sanitize, "sanitize", false, "with -run: arm the KASAN/kmemleak-analog sanitizer; findings fail the run (exit 1)")
	fs.StringVar(&c.benchOut, "bench-out", "BENCH_cluster.json", "with -exp cluster: write the machine-readable sweep to this file")

	fs.StringVar(&c.chaosTarget, "chaos-target", "cluster", "with -exp chaos: campaign target (cluster or machine)")
	fs.StringVar(&c.chaosOut, "chaos-out", "BENCH_chaos.json", "with -exp chaos: write the machine-readable campaign summary to this file")
	fs.StringVar(&c.replayFile, "replay", "", "with -exp chaos: replay a CHAOS_repro_*.json artifact instead of running a campaign; a non-reproducing or non-deterministic replay fails (exit 1)")
	return c
}

// The modes a command line can select.
const (
	modeRun     = "-run"
	modeTrace   = "-run -trace"
	modePaper   = "-exp <paper experiment>"
	modeCluster = "-exp cluster"
	modeChaos   = "-exp chaos"
	modeReplay  = "-exp chaos -replay"
)

// flagReaders maps each flag to the modes that read it.
var flagReaders = map[string][]string{
	"exp":          {modePaper, modeCluster, modeChaos, modeReplay},
	"quick":        {modeRun, modePaper, modeCluster, modeChaos},
	"duration-ms":  {modeRun, modePaper, modeCluster},
	"seed":         {modeRun, modePaper, modeCluster, modeChaos},
	"scale":        {modeRun, modePaper, modeCluster},
	"workloads":    {modePaper},
	"run":          {modeRun},
	"policy":       {modeRun},
	"workload":     {modeRun},
	"optane":       {modeRun},
	"trace":        {modeRun},
	"trace-events": {modeTrace},
	"sanitize":     {modeRun},
	"bench-out":    {modeCluster},
	"chaos-target": {modeChaos},
	"chaos-out":    {modeChaos},
	"replay":       {modeReplay},
}

// checkFlags rejects, before any run starts, a command line no run can
// honor: stray arguments, a scale divisor below 1, a negative duration,
// seed 0 (the harness would silently run seed 42 instead), unknown
// workload names, -workloads that leave an experiment nothing to run,
// trace patterns that select no catalog event, and a
// flag set on the command line that the selected mode never reads. It
// returns the experiments -exp names (none with -run).
func checkFlags(fs *flag.FlagSet, c *cliFlags) ([]string, error) {
	switch {
	case fs.NArg() > 0:
		return nil, fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	case c.scale < 1:
		return nil, fmt.Errorf("-scale %d: the scale divisor must be at least 1", c.scale)
	case c.durationMS < 0:
		return nil, fmt.Errorf("-duration-ms %d: the duration must not be negative", c.durationMS)
	case c.seed == 0:
		return nil, fmt.Errorf("-seed 0: the seed must be nonzero (0 would run seed %d)", defaultSeed)
	}
	known := kloc.WorkloadNames()
	for _, w := range splitList(c.workloads) {
		if !slices.Contains(known, w) {
			return nil, fmt.Errorf("-workloads: unknown workload %q (valid: %s)", w, strings.Join(known, ", "))
		}
	}
	if err := trace.CheckEvents(splitList(c.traceEvents)); err != nil {
		return nil, fmt.Errorf("-trace-events: %w", err)
	}

	var names, modes []string
	addMode := func(m string) {
		if !slices.Contains(modes, m) {
			modes = append(modes, m)
		}
	}
	if c.rawRun {
		addMode(modeRun)
		if c.traceFile != "" {
			addMode(modeTrace)
		}
	} else {
		if c.exp == "" {
			return nil, fmt.Errorf("nothing to do: pass -exp <id> or -run")
		}
		var err error
		if names, err = resolveExperiments(c.exp); err != nil {
			return nil, err
		}
		for _, n := range names {
			switch {
			case n == "cluster":
				addMode(modeCluster)
			case n == "chaos" && c.replayFile != "":
				addMode(modeReplay)
			case n == "chaos":
				addMode(modeChaos)
			default:
				addMode(modePaper)
			}
			if _, err := (kloc.Options{Workloads: splitList(c.workloads)}).FixedWorkloads(n); err != nil {
				return nil, fmt.Errorf("-workloads: %w", err)
			}
		}
	}
	var ignored error
	fs.Visit(func(f *flag.Flag) {
		readers := flagReaders[f.Name]
		if ignored == nil && !slices.ContainsFunc(modes, func(m string) bool { return slices.Contains(readers, m) }) {
			ignored = fmt.Errorf("-%s is read only by %s, not by %s",
				f.Name, strings.Join(readers, " or "), strings.Join(modes, " or "))
		}
	})
	return names, ignored
}

// splitList splits a comma-separated flag value, dropping blanks; an
// empty value gives nil.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// fatal reports a runtime failure (exit 1). Flag-validation problems go
// through usageError (exit 2) per Go CLI convention.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "klocbench:", err)
	os.Exit(1)
}

func usageError(err error) {
	fmt.Fprintln(os.Stderr, "klocbench:", err)
	fmt.Fprintln(os.Stderr, "run 'klocbench -h' for usage")
	os.Exit(2)
}
