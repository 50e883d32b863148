package harness

import (
	"encoding/json"
	"fmt"

	"kloc/internal/cluster"
	"kloc/internal/fault"
	"kloc/internal/sim"
)

// ClusterBenchRow is one cluster sweep point in the machine-readable
// report (BENCH_cluster.json).
type ClusterBenchRow struct {
	Route      string  `json:"route"`
	Arrival    string  `json:"arrival"`
	Load       float64 `json:"load"`
	RatePerSec float64 `json:"rate_per_sec"`

	OfferedPerSec float64 `json:"offered_per_sec"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	MeanLatencyUs float64 `json:"mean_latency_us"`
	P50Us         float64 `json:"p50_us"`
	P99Us         float64 `json:"p99_us"`

	Arrivals  uint64 `json:"arrivals"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Shed      uint64 `json:"shed"`
	ShedCold  uint64 `json:"shed_cold"`
	Retries   uint64 `json:"retries"`
	Timeouts  uint64 `json:"timeouts"`
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	Wasted    uint64 `json:"wasted_work"`
	Crashes   uint64 `json:"crashes"`

	Availability      float64 `json:"availability"`
	FaultAvailability float64 `json:"fault_availability"`
}

// BenchSchemaVersion stamps the machine-readable bench reports
// (BENCH_*.json) so downstream consumers can detect shape changes.
const BenchSchemaVersion = 1

// ClusterBenchReport is the full machine-readable cluster sweep.
type ClusterBenchReport struct {
	SchemaVersion int    `json:"schema_version"`
	Experiment    string `json:"experiment"`
	Workload      string `json:"workload"`
	Policy        string `json:"policy"`
	Machines      int    `json:"machines"`
	Workers       int    `json:"workers"`
	Seed          uint64 `json:"seed"`
	// ServiceCostNs is the calibrated mean per-request service cost;
	// CapacityPerSec the fleet capacity derived from it (the rate the
	// load factors multiply).
	ServiceCostNs  int64   `json:"service_cost_ns"`
	CapacityPerSec float64 `json:"capacity_per_sec"`
	// KneeLoad maps each route to the highest swept load factor it
	// absorbed at >= 95% availability — past it the capacity knee.
	KneeLoad map[string]float64 `json:"knee_load"`

	Rows []ClusterBenchRow `json:"rows"`
}

// JSON renders the report deterministically (two same-seed sweeps are
// byte-identical).
func (r *ClusterBenchReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// clusterLoads are the sweep's offered-load factors (fractions of the
// calibrated fleet capacity): two below the knee, one at it, two past
// (affinity routing keeps most service hot, so the KLOC-aware route's
// effective capacity sits above the cold-calibrated estimate and its
// knee arrives later than round-robin's).
var clusterLoads = []float64{0.3, 0.6, 0.9, 1.2, 1.5}

// ClusterBench sweeps the cluster serving plane: offered load versus
// routing policy with a crash and a degrade window in every run, plus
// the non-Poisson arrival shapes on the KLOC-aware route. It reports
// the rendered table and the machine-readable report klocbench writes
// to BENCH_cluster.json.
func ClusterBench(o Options) (*Table, *ClusterBenchReport, error) {
	base := cluster.Config{
		ScaleDiv: o.ScaleDiv,
		Seed:     o.Seed,
		// The serving plane drives far more requests per virtual second
		// than the closed-loop experiments drive ops; half the batch
		// duration keeps the sweep's wall time in the same ballpark.
		Duration: o.Duration / 2,
	}
	base = baseWithFaults(base)
	cost, err := cluster.EstimateServiceCost(base)
	if err != nil {
		return nil, nil, err
	}
	capacity := float64(base.Machines*base.Workers) / cost.Seconds()

	rep := &ClusterBenchReport{
		SchemaVersion:  BenchSchemaVersion,
		Experiment:     "cluster",
		Workload:       base.Workload,
		Policy:         cluster.PolicyName,
		Machines:       base.Machines,
		Workers:        base.Workers,
		Seed:           o.Seed,
		ServiceCostNs:  int64(cost),
		CapacityPerSec: capacity,
		KneeLoad:       make(map[string]float64, 3),
	}
	t := &Table{
		Title: "Cluster serving plane — p99 and goodput vs offered load, through fault windows",
		Note: fmt.Sprintf("%d machines x %d workers, %s/%s; calibrated capacity %.0f req/s; "+
			"crash at 40%% and fast-tier degrade at 60%% of every run",
			rep.Machines, rep.Workers, rep.Workload, rep.Policy, capacity),
		Header: []string{"route", "arrival", "load", "goodput/s", "avail", "fault-avail",
			"p50", "p99", "shed", "retries", "hedges", "timeouts"},
	}

	addRow := func(route, arrival string, load float64) error {
		cfg := base
		cfg.Route = route
		cfg.Arrival = arrival
		cfg.Rate = load * capacity
		r, err := runCluster(cfg)
		if err != nil {
			return err
		}
		s := r.Stats
		t.AddRow(route, arrival, f2(load), f1(r.GoodputPerSec),
			pct(r.Availability), pct(r.FaultAvailability),
			r.P50.String(), r.P99.String(),
			count(s.Shed), count(s.Retries), count(s.Hedges), count(s.Timeouts))
		rep.Rows = append(rep.Rows, ClusterBenchRow{
			Route: route, Arrival: arrival, Load: load, RatePerSec: cfg.Rate,
			OfferedPerSec: r.OfferedPerSec, GoodputPerSec: r.GoodputPerSec,
			MeanLatencyUs: float64(r.MeanLatency) / float64(sim.Microsecond),
			P50Us:         float64(r.P50) / float64(sim.Microsecond),
			P99Us:         float64(r.P99) / float64(sim.Microsecond),
			Arrivals:      s.Arrivals, Completed: s.Completed, Failed: s.Failed,
			Shed: s.Shed, ShedCold: s.ShedCold, Retries: s.Retries,
			Timeouts: s.Timeouts, Hedges: s.Hedges, HedgeWins: s.HedgeWins,
			Wasted: s.WastedWork, Crashes: s.Crashes,
			Availability: r.Availability, FaultAvailability: r.FaultAvailability,
		})
		if r.Availability >= 0.95 && load > rep.KneeLoad[route] {
			rep.KneeLoad[route] = load
		}
		return nil
	}

	for _, load := range clusterLoads {
		for _, route := range cluster.RouteNames() {
			if err := addRow(route, "poisson", load); err != nil {
				return nil, nil, err
			}
		}
	}
	// Arrival-shape sensitivity at the knee, on the KLOC-aware route:
	// the same mean rate arriving in bursts or diurnal swings stresses
	// shedding and hedging harder than Poisson.
	for _, arrival := range []string{"bursty", "diurnal"} {
		if err := addRow("kloc", arrival, 0.9); err != nil {
			return nil, nil, err
		}
	}
	return t, rep, nil
}

// baseWithFaults resolves the fleet shape and arms the sweep's fault
// schedule: every run crashes machine 1 at 40% of the measured window
// and degrades machine 2's fast tier at 60%, with downtime and
// degradation windows sized to the run.
func baseWithFaults(cfg cluster.Config) cluster.Config {
	cfg = cfg.WithDefaults()
	cfg.Faults = &fault.Schedule{Injections: []fault.Injection{
		{Point: fault.MachineCrash, Machine: 1, At: sim.Duration(float64(cfg.Duration) * 0.4)},
		{Point: fault.MachineDegrade, Machine: 2, At: sim.Duration(float64(cfg.Duration) * 0.6)},
	}}
	cfg.RestartDelay = cfg.Duration / 8
	cfg.DegradeFor = cfg.Duration / 8
	return cfg
}

// runCluster builds and runs one cluster configuration.
func runCluster(cfg cluster.Config) (*cluster.Report, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return c.Run()
}
