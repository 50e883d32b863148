package cluster

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"kloc/internal/fault"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// fail feeds n consecutive failures to a breaker.
func fail(br *Breaker, now sim.Time, n int) {
	for i := 0; i < n; i++ {
		br.OnFailure(now)
	}
}

func TestBreakerTransitions(t *testing.T) {
	br := newBreaker()
	now := sim.Time(0)
	if got := br.State(now); got != BreakerClosed {
		t.Fatalf("initial state %v, want closed", got)
	}
	// Failures below the threshold keep it closed; a success resets the
	// streak.
	fail(br, now, breakerFailThreshold-1)
	br.OnSuccess(now)
	fail(br, now, breakerFailThreshold-1)
	if got := br.State(now); got != BreakerClosed {
		t.Fatalf("state after interrupted streak %v, want closed", got)
	}
	// The threshold-th consecutive failure opens it.
	br.OnFailure(now)
	if got := br.State(now); got != BreakerOpen {
		t.Fatalf("state after %d consecutive failures %v, want open", breakerFailThreshold, got)
	}
	if br.Allow(now) {
		t.Fatal("open breaker allowed a request")
	}
	// Cooloff expiry → half-open with a bounded probe budget.
	now = now.Add(sim.Millisecond)
	if got := br.State(now); got != BreakerHalfOpen {
		t.Fatalf("state after cooloff %v, want half-open", got)
	}
	if !br.Allow(now) {
		t.Fatal("half-open breaker refused the first probe")
	}
	br.OnDispatch(now)
	if br.Allow(now) {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	// Probe failure reopens; the next cooloff + probe success closes.
	br.OnFailure(now)
	if got := br.State(now); got != BreakerOpen {
		t.Fatalf("state after probe failure %v, want open", got)
	}
	now = now.Add(sim.Millisecond)
	br.OnDispatch(now)
	br.OnSuccess(now)
	if got := br.State(now); got != BreakerClosed {
		t.Fatalf("state after probe success %v, want closed", got)
	}
}

// TestBreakerCancelReleasesProbe: a half-open probe abandoned without
// an outcome (a cancelled hedge leg) must hand its slot back, or the
// breaker would stay half-open with an exhausted budget forever and
// the backend would never re-enter routing.
func TestBreakerCancelReleasesProbe(t *testing.T) {
	br := newBreaker()
	now := sim.Time(0)
	fail(br, now, breakerFailThreshold)
	now = now.Add(sim.Millisecond)
	token := br.OnDispatch(now)
	if token == 0 {
		t.Fatal("half-open dispatch consumed no probe slot")
	}
	if br.Allow(now) {
		t.Fatal("probe budget of 1 allowed a second concurrent probe")
	}
	br.OnCancel(now, token)
	if !br.Allow(now) {
		t.Fatal("cancelled probe never released its slot: breaker pinned half-open")
	}
	// A stale token from before a state transition must not release a
	// slot consumed by the new generation.
	token = br.OnDispatch(now)
	br.OnFailure(now) // probe failure → open (new generation)
	now = now.Add(sim.Millisecond)
	fresh := br.OnDispatch(now) // half-open again: fresh probe in flight
	if fresh == 0 {
		t.Fatal("half-open dispatch consumed no probe slot after reopen")
	}
	br.OnCancel(now, token)
	if br.Allow(now) {
		t.Fatal("stale probe token released the new generation's slot")
	}
	// A closed-state dispatch consumes nothing and returns a zero
	// token; cancelling it is a no-op.
	br.OnSuccess(now)
	if got := br.OnDispatch(now); got != 0 {
		t.Fatalf("closed-state dispatch returned probe token %d, want 0", got)
	}
	br.OnCancel(now, 0)
	if !br.Allow(now) {
		t.Fatal("closed breaker stopped allowing after a zero-token cancel")
	}
}

func TestBackoffDeterminism(t *testing.T) {
	draw := func(seed uint64) []sim.Duration {
		r := sim.NewRNG(seed)
		out := make([]sim.Duration, 0, 8)
		for a := 1; a <= 8; a++ {
			out = append(out, backoff(a, r))
		}
		return out
	}
	x, y := draw(7), draw(7)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("delay %d diverged at same seed: %v vs %v", i, x[i], y[i])
		}
	}
	z := draw(8)
	same := true
	for i := range x {
		if x[i] != z[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical backoff schedules")
	}
	// Jitter bounds: attempt n's delay lies in [d/2, d] for the grown,
	// capped d.
	r := sim.NewRNG(9)
	for a := 1; a <= 10; a++ {
		d := sim.Duration(100*sim.Microsecond) << (a - 1)
		if d > sim.Millisecond {
			d = sim.Millisecond
		}
		got := backoff(a, r)
		if got < d/2 || got > d {
			t.Fatalf("attempt %d delay %v outside [%v, %v]", a, got, d/2, d)
		}
	}
}

// estimateOnce caches the calibration run: machine setup is the slow
// part of every cluster test.
var (
	estOnce sync.Once
	estCost sim.Duration
	estErr  error
)

func testConfig() Config {
	return Config{
		Machines: 2,
		Workers:  2,
		ScaleDiv: 256,
		Workload: "redis",
		Rate:     1, // callers override
		Duration: 20 * sim.Millisecond,
		Warmup:   2 * sim.Millisecond,
	}
}

func serviceCost(t *testing.T) sim.Duration {
	t.Helper()
	estOnce.Do(func() {
		estCost, estErr = EstimateServiceCost(testConfig())
	})
	if estErr != nil {
		t.Fatal(estErr)
	}
	return estCost
}

// rateFor returns an offered rate loading the test fleet at the given
// factor of its estimated capacity.
func rateFor(t *testing.T, cfg Config, load float64) float64 {
	cost := serviceCost(t)
	capacity := float64(cfg.Machines*cfg.Workers) / cost.Seconds()
	return load * capacity
}

// schedule builds a fault schedule from its injections.
func schedule(ins ...fault.Injection) *fault.Schedule {
	return &fault.Schedule{Injections: ins}
}

// TestNewRejectsBadFaults: an injection that targets a machine outside
// the fleet or names a point outside the catalog is EINVAL, rather than
// an injection the arming loop silently skips.
func TestNewRejectsBadFaults(t *testing.T) {
	valid := fault.Injection{Point: fault.MachineCrash, Machine: 1}
	cfg := testConfig()
	cfg.Faults = schedule(valid)
	if _, err := New(cfg); err != nil {
		t.Fatalf("in-range injection: %v", err)
	}
	for _, tc := range []struct {
		name string
		in   fault.Injection
	}{
		{"negative machine", fault.Injection{Point: fault.MachineCrash, Machine: -1}},
		{"machine past the fleet", fault.Injection{Point: fault.MachineDegrade, Machine: 2}},
		{"kernel point past the fleet", fault.Injection{Point: fault.AllocPage, Machine: 7}},
		{"unknown point", fault.Injection{Point: "cluster.meltdown", Machine: 0}},
		{"empty point", fault.Injection{Machine: 1}},
	} {
		cfg := testConfig()
		cfg.Faults = schedule(valid, tc.in)
		if _, err := New(cfg); !errors.Is(err, fault.EINVAL) {
			t.Errorf("%s (%s): New returned %v, want EINVAL", tc.name, tc.in, err)
		}
	}
}

// TestNewRejectsBadTracePatterns: an event pattern that is malformed
// or matches no catalog event is EINVAL, as it is for a single run,
// rather than a fleet that silently traces nothing.
func TestNewRejectsBadTracePatterns(t *testing.T) {
	for _, pattern := range []string{"nosuch.event", "["} {
		cfg := testConfig()
		cfg.Trace = &trace.Config{Events: []string{pattern}}
		if _, err := New(cfg); !errors.Is(err, fault.EINVAL) {
			t.Errorf("trace events {%q}: New returned %v, want EINVAL", pattern, err)
		}
	}
}

func TestClusterReplayByteIdentical(t *testing.T) {
	run := func() (string, string) {
		cfg := testConfig()
		cfg.Route = "kloc"
		cfg.Rate = rateFor(t, cfg, 0.7)
		cfg.Faults = schedule(fault.Injection{Point: fault.MachineCrash, Machine: 1, At: 8 * sim.Millisecond})
		cfg.RestartDelay = 4 * sim.Millisecond
		cfg.Trace = &trace.Config{}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := c.Tracer().WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return rep.String(), sb.String()
	}
	rep1, tr1 := run()
	rep2, tr2 := run()
	if rep1 != rep2 {
		t.Fatalf("same-seed reports differ:\n%s\nvs\n%s", rep1, rep2)
	}
	if tr1 != tr2 {
		t.Fatal("same-seed trace exports differ")
	}
	if len(tr1) == 0 {
		t.Fatal("trace export is empty")
	}
}

// TestHedgingCancelsLoser: with one machine degraded far past the
// hedge delay, hedges fire, the healthy machine wins, and the loser's
// eventual completion is counted as wasted work.
func TestHedgingCancelsLoser(t *testing.T) {
	cfg := testConfig()
	cfg.Route = "round-robin"
	cfg.Rate = rateFor(t, cfg, 0.2)
	cfg.HedgeAfter = 20 * sim.Microsecond
	cfg.DegradeFactor = 400
	cfg.DegradeFor = 40 * sim.Millisecond // the whole run
	cfg.Faults = schedule(fault.Injection{Point: fault.MachineDegrade, Machine: 1})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stats
	if s.Hedges == 0 {
		t.Fatalf("no hedges fired: %+v", s)
	}
	if s.HedgeWins == 0 {
		t.Fatalf("no hedge ever won against a 400x-degraded backend: %+v", s)
	}
	if s.WastedWork == 0 {
		t.Fatalf("hedge losers' service was never counted as wasted: %+v", s)
	}
}

func TestShedUnderOverload(t *testing.T) {
	cfg := testConfig()
	cfg.Route = "kloc"
	cfg.Rate = rateFor(t, cfg, 5)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stats
	if s.Shed == 0 {
		t.Fatalf("5x overload shed nothing: %+v", s)
	}
	if s.ShedCold == 0 {
		t.Fatalf("kloc shedding never hit the cold-context threshold: %+v", s)
	}
	if s.Completed == 0 {
		t.Fatalf("overloaded cluster completed nothing: %+v", s)
	}
}

// TestTimeoutsExhaustAttempts: a single 1000x-degraded machine cannot
// answer inside the 2 ms client deadline, so requests time out, retry
// into the same machine, and finally fail with ETIMEDOUT.
func TestTimeoutsExhaustAttempts(t *testing.T) {
	cfg := testConfig()
	cfg.Machines = 1
	cfg.Route = "round-robin"
	cfg.Rate = rateFor(t, cfg, 0.1)
	cfg.HedgeAfter = -1 // disabled: isolate the timeout path
	cfg.DegradeFactor = 1000
	cfg.DegradeFor = 40 * sim.Millisecond
	cfg.Faults = schedule(fault.Injection{Point: fault.MachineDegrade, Machine: 0})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stats
	if s.Timeouts == 0 {
		t.Fatalf("no attempt ever timed out: %+v", s)
	}
	if s.FailedTimeout == 0 {
		t.Fatalf("no request failed with ETIMEDOUT after exhausting attempts: %+v", s)
	}
	if s.WastedWork == 0 {
		t.Fatalf("abandoned services were never counted as wasted: %+v", s)
	}
}

// TestCrashWindowRecovery: a mid-run crash ejects the machine, fails
// over traffic, and the fleet re-admits it after restart.
func TestCrashWindowRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.Route = "least-loaded"
	cfg.Rate = rateFor(t, cfg, 0.5)
	cfg.Faults = schedule(fault.Injection{Point: fault.MachineCrash, Machine: 0, At: 6 * sim.Millisecond})
	cfg.RestartDelay = 5 * sim.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stats
	if s.Crashes != 1 || s.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1 and 1", s.Crashes, s.Restarts)
	}
	if s.Ejections == 0 {
		t.Fatalf("health checker never ejected the crashed machine: %+v", s)
	}
	if s.Readmissions == 0 {
		t.Fatalf("health checker never re-admitted the restarted machine: %+v", s)
	}
	if s.FaultArrivals == 0 {
		t.Fatal("no arrivals landed in the fault window")
	}
	if rep.Availability < 0.5 {
		t.Fatalf("availability %.3f through a single-machine crash, want >= 0.5\n%s",
			rep.Availability, rep)
	}
	if rep.FaultAvailability <= 0 {
		t.Fatalf("nothing completed during the fault window: %+v", s)
	}
}

// TestHealthProberFlapping: back-to-back crash windows on the same
// machine must drive eject → re-admit → eject → re-admit without
// corrupting routing weights or outstanding counts (regression guard
// for the hedge-leg accounting fixes).
func TestHealthProberFlapping(t *testing.T) {
	cfg := testConfig()
	cfg.Route = "least-loaded"
	cfg.Rate = rateFor(t, cfg, 0.5)
	cfg.RestartDelay = 3 * sim.Millisecond
	cfg.Faults = schedule(
		fault.Injection{Point: fault.MachineCrash, Machine: 0, At: 4 * sim.Millisecond},
		fault.Injection{Point: fault.MachineCrash, Machine: 0, At: 10 * sim.Millisecond},
	)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stats
	if s.Crashes != 2 || s.Restarts != 2 {
		t.Fatalf("crashes=%d restarts=%d, want 2 and 2", s.Crashes, s.Restarts)
	}
	if s.Ejections < 2 {
		t.Fatalf("ejections=%d, want >= 2 (one per crash window): %+v", s.Ejections, s)
	}
	if s.Readmissions < 2 {
		t.Fatalf("readmissions=%d, want >= 2 (one per restart): %+v", s.Readmissions, s)
	}
	if !c.Settle(20 * sim.Millisecond) {
		t.Fatalf("fleet never settled after flapping: %+v", c.Introspect())
	}
	in := c.Introspect()
	if in.Outstanding != 0 {
		t.Fatalf("outstanding=%d after settle", in.Outstanding)
	}
	if in.AdmittedAll != in.ResolvedAll {
		t.Fatalf("admitted=%d resolved=%d: some request never terminated or terminated twice",
			in.AdmittedAll, in.ResolvedAll)
	}
	for i := range in.Out {
		if in.Out[i] != 0 {
			t.Fatalf("machine %d routing weight skewed: out=%v", i, in.Out)
		}
		if !in.Up[i] || !in.Healthy[i] {
			t.Fatalf("machine %d not re-admitted: up=%v healthy=%v", i, in.Up, in.Healthy)
		}
		if in.BreakerProbes[i] != 0 {
			t.Fatalf("machine %d breaker holds %d probe slots with nothing in flight",
				i, in.BreakerProbes[i])
		}
	}
}
