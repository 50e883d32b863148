package chaos

import (
	"kloc/internal/fault"
	"kloc/internal/sim"
)

// generator samples randomized fault schedules, deterministically
// from the campaign seed. Each schedule draws from a forked RNG
// stream, so schedule i is the same no matter how schedules 0..i-1
// were executed.
type generator struct {
	cfg Config
	// root is drawn only by the campaign loop; every schedule gets its
	// own forked child stream.
	root     *sim.RNG
	points   []fault.Point
	errnos   []fault.Errno
	machines int
}

func newGenerator(cfg Config) *generator {
	g := &generator{
		cfg:      cfg,
		root:     sim.NewRNG(cfg.Seed ^ 0x63686165),
		errnos:   fault.Errnos(),
		machines: 1,
	}
	for _, pt := range fault.Points() {
		if cfg.Target == TargetMachine && (pt == fault.MachineCrash || pt == fault.MachineDegrade) {
			// One kernel has no fleet membership to crash; the point
			// would never be consulted.
			continue
		}
		g.points = append(g.points, pt)
	}
	if cfg.Target == TargetCluster {
		g.machines = clusterMachines
	}
	return g
}

// next samples one schedule: 1..MaxInjections injections, each a
// uniform point at a uniform offset inside the measured window, with
// the point's default errno most of the time (an explicit random
// errno otherwise) and mostly-single bursts.
func (g *generator) next() fault.Schedule {
	rng := g.root.Fork()
	k := 1 + rng.Intn(g.cfg.MaxInjections)
	s := fault.Schedule{Injections: make([]fault.Injection, 0, k)}
	for j := 0; j < k; j++ {
		in := fault.Injection{
			Point:   g.points[rng.Intn(len(g.points))],
			Machine: rng.Intn(g.machines),
			At:      sim.Duration(rng.Int63n(int64(g.cfg.Duration))),
			Burst:   1,
		}
		if rng.Bool(0.2) {
			in.Err = g.errnos[rng.Intn(len(g.errnos))]
		}
		if rng.Bool(0.25) {
			in.Burst = 2 + rng.Intn(3)
		}
		s.Injections = append(s.Injections, in)
	}
	return s.Normalize()
}
