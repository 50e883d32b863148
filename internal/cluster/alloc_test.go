package cluster

import (
	"runtime"
	"testing"

	"kloc/internal/fault"
	"kloc/internal/sim"
)

// allocsPerRequestCeiling bounds the heap objects a fleet allocates
// per request while it runs: the 2.403 measured when the request path
// stopped allocating closures and scratch slices (11.28 before), plus
// 10%.
const allocsPerRequestCeiling = 2.65

// TestRunAllocsPerRequest: the request path allocates a request and
// its attempts and nothing more; eligibility, in-flight legs, machine
// queues and every timer reuse what the balancer, request or attempt
// already holds. The run degrades one machine and crashes the other,
// and hedges early, so retries, hedges and crash-failed attempts are
// all in the count.
func TestRunAllocsPerRequest(t *testing.T) {
	cfg := testConfig()
	cfg.Route = "kloc"
	cfg.Rate = rateFor(t, cfg, 0.7)
	cfg.HedgeAfter = 50 * sim.Microsecond
	cfg.Faults = schedule(
		fault.Injection{Point: fault.MachineDegrade, Machine: 0, At: 2 * sim.Millisecond},
		fault.Injection{Point: fault.MachineCrash, Machine: 1, At: 8 * sim.Millisecond})
	cfg.RestartDelay = 4 * sim.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := c.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Retries == 0 || rep.Stats.Hedges == 0 {
		t.Fatalf("the run neither retried nor hedged: %+v", rep.Stats)
	}
	perReq := float64(after.Mallocs-before.Mallocs) / float64(c.reqIDs)
	t.Logf("%d requests, %.3f heap objects each (%d retries, %d hedges)", c.reqIDs, perReq, rep.Stats.Retries, rep.Stats.Hedges)
	if perReq > allocsPerRequestCeiling {
		t.Errorf("Run allocated %.2f heap objects per request, ceiling %.2f", perReq, allocsPerRequestCeiling)
	}
}
