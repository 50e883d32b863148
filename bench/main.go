// Command bench measures the simulator's host speed end to end and
// layer by layer, and checks the simulated output of every execution
// it times (README.md in this directory has the catalog and the first
// measured table).
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1]
//
// With -workload it runs that workload in this process and prints
// every metric by name, with its unit, and as the last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. -trace 0
// gives the end-to-end metrics, -trace 1 the per-layer ones. Without
// -workload it runs all seven, one after another, each in a child
// process of its own so that peak RSS and heap state do not carry
// over. The exit status is 0 when every execution was correct, 1 when
// one was not or a run failed, and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs all seven, each in a child process")
	seed := fs.Uint64("seed", 42, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "how long the timed executions of one workload may take")
	traceFlag := fs.Int("trace", 0, "0: end-to-end pass; 1: traced pass giving the per-layer metrics")
	spans := fs.String("spans", ".bench_build/spans", "directory for the traced pass's span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: want flags only, -trace 0 or 1 and -seconds > 0")
		return 2
	}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	c := config{seed: *seed, seconds: *seconds, size: fullSize, root: ".", spans: *spans}
	pass, catalog := untraced, endToEnd
	if *traceFlag == 1 {
		pass, catalog = traced, perLayer
	}
	rep, err := pass(w, c, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s seed=%d executions=%d failed=%d", w.name, *seed, rep.Attempted, rep.Failed)
	if rep.speed > 0 {
		fmt.Fprintf(stdout, " host-speed=%.3f of reference (times are normalized to it)", rep.speed)
	}
	fmt.Fprintln(stdout)
	for _, m := range catalog {
		v := rep.Metrics[m.name]
		line := fmt.Sprintf("  %-28s %14.6g %-6s", m.name, v.Value, v.Unit)
		if m.bound > 0 {
			line += fmt.Sprintf(" bound %g%%, %s is better", 100*m.bound, m.better)
		}
		fmt.Fprintln(stdout, line)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in turn, each in a child process of this
// executable given the same flags, and waits for each to end.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}
