// Command kloctrace runs one workload/policy pair and dumps a
// time-sliced trace of placement state: node occupancy by class,
// migration activity, and KLOC registry state — a debugging lens on
// what the policies actually do.
//
// Usage:
//
//	kloctrace -policy klocs -workload rocksdb -slices 10
package main

import (
	"flag"
	"fmt"
	"os"

	"kloc/internal/kernel"
	"kloc/internal/memsim"
	"kloc/internal/policy"
	"kloc/internal/sim"
	"kloc/internal/workload"
)

func main() {
	var (
		polName = flag.String("policy", "klocs", "tiering policy")
		wlName  = flag.String("workload", "rocksdb", "workload")
		slices  = flag.Int("slices", defaultSlices, "number of trace slices (at least 1)")
		durMS   = flag.Int("duration-ms", defaultDurationMS, "virtual duration in ms (at least 1)")
		seed    = flag.Uint64("seed", 42, "simulation seed")
		scale   = flag.Int("scale", defaultScale, "platform scale divisor (at least 1)")
	)
	flag.Parse()
	if err := checkFlags(*slices, *durMS, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "kloctrace:", err)
		os.Exit(2)
	}

	mem := memsim.NewTwoTier(memsim.DefaultTwoTier(*scale))
	pol, err := policy.ByName(*polName)
	if err != nil {
		fatal(err)
	}
	wl, err := workload.ByName(*wlName, workload.Config{ScaleDiv: *scale})
	if err != nil {
		fatal(err)
	}

	eng := sim.NewEngine()
	k := kernel.New(eng, mem, pol)
	root := sim.NewRNG(*seed)
	if err := wl.Setup(k, root); err != nil {
		fatal(err)
	}
	k.Start()

	total := sim.Duration(*durMS) * sim.Millisecond
	slice := total / sim.Duration(*slices)

	// Drive the workload threads exactly as the harness does. A failed
	// step stops its thread and fails the trace once its slice ends.
	var stepErr error
	for t := 0; t < wl.Threads(); t++ {
		t := t
		rng := root.Fork()
		var step func(*sim.Engine)
		step = func(e *sim.Engine) {
			if stepErr != nil || e.Now() >= sim.Time(0).Add(total) {
				return
			}
			ctx := k.NewCtx(t)
			if err := wl.Step(k, ctx, t, rng); err != nil {
				stepErr = fmt.Errorf("%s thread %d: %w", wl.Name(), t, err)
				return
			}
			cost := ctx.Cost
			if cost < 100 {
				cost = 100
			}
			e.After(cost, step)
		}
		eng.Schedule(sim.Time(t), step)
	}

	fmt.Printf("trace: %s / %s on two-tier (fast=%d pages, slow=%d pages)\n\n",
		*polName, *wlName, mem.Node(memsim.FastNode).Capacity, mem.Node(memsim.SlowNode).Capacity)
	fmt.Printf("%-8s %-22s %-22s %-10s %-10s %s\n",
		"t", "fast used (cls app/$/slab)", "slow used", "demoted", "promoted", "kloc")

	var lastDem, lastProm uint64
	for i := 1; i <= *slices; i++ {
		deadline := sim.Time(0).Add(slice * sim.Duration(i))
		eng.RunUntil(deadline)
		if stepErr != nil {
			fatal(stepErr)
		}
		fast := mem.Node(memsim.FastNode)
		slow := mem.Node(memsim.SlowNode)
		klocInfo := "-"
		if kp, ok := pol.(*policy.KLOCs); ok {
			klocInfo = fmt.Sprintf("knodes=%d meta=%dB hit=%.2f",
				kp.Reg.Len(), kp.Reg.MetadataBytes(), kp.Reg.FastPathHitRate())
		}
		fmt.Printf("%-8v %-22s %-22s %-10d %-10d %s\n",
			sim.Duration(deadline),
			occupancy(mem, memsim.FastNode, fast.Capacity),
			occupancy(mem, memsim.SlowNode, slow.Capacity),
			mem.Stats.Demotions-lastDem,
			mem.Stats.Promotions-lastProm,
			klocInfo)
		lastDem, lastProm = mem.Stats.Demotions, mem.Stats.Promotions
	}
}

func occupancy(m *memsim.Memory, node memsim.NodeID, cap_ int) string {
	var byClass [6]int
	for _, f := range m.FramesOn(node) {
		byClass[f.Class]++
	}
	used := m.Node(node).Used()
	return fmt.Sprintf("%d/%d (%d/%d/%d)", used, cap_,
		byClass[memsim.ClassApp], byClass[memsim.ClassCache],
		byClass[memsim.ClassSlab]+byClass[memsim.ClassKloc]+byClass[memsim.ClassMeta])
}

// Flag defaults that checkFlags must accept.
const (
	defaultSlices     = 10
	defaultDurationMS = 200
	defaultScale      = 64
)

// checkFlags rejects flag values that cannot produce a trace: no
// slices (a zero count divides by zero, a negative one prints no rows),
// no virtual time (every row at 0 ns) or a scale divisor below 1.
func checkFlags(slices, durationMS, scale int) error {
	switch {
	case slices < 1:
		return fmt.Errorf("-slices %d: need at least 1 slice", slices)
	case durationMS < 1:
		return fmt.Errorf("-duration-ms %d: need at least 1 ms of virtual time", durationMS)
	case scale < 1:
		return fmt.Errorf("-scale %d: the scale divisor must be at least 1", scale)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kloctrace:", err)
	os.Exit(1)
}
