package workload

import (
	"testing"

	"kloc/internal/sim"
)

// meanRate drives an arrival process for the given span and returns
// the realized arrivals per second.
func meanRate(t *testing.T, a Arrival, span sim.Duration, seed uint64) float64 {
	t.Helper()
	r := sim.NewRNG(seed)
	now := sim.Time(0)
	n := 0
	for now < sim.Time(span) {
		now = now.Add(a.Next(now, r))
		n++
	}
	return float64(n) / span.Seconds()
}

// arrivalNames is ArrivalByName's catalog.
var arrivalNames = []string{"poisson", "bursty", "diurnal"}

func TestArrivalMeanRates(t *testing.T) {
	const rate = 200_000 // 200k req/s over 200 ms ⇒ ~40k samples
	for _, name := range arrivalNames {
		a, err := ArrivalByName(name, rate)
		if err != nil {
			t.Fatal(err)
		}
		got := meanRate(t, a, 200*sim.Millisecond, 7)
		if got < 0.85*rate || got > 1.15*rate {
			t.Errorf("%s: realized rate %.0f/s, want within 15%% of %d/s", name, got, rate)
		}
	}
}

func TestArrivalDeterminism(t *testing.T) {
	for _, name := range arrivalNames {
		a, err := ArrivalByName(name, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		draw := func(seed uint64) []sim.Duration {
			r := sim.NewRNG(seed)
			now := sim.Time(0)
			out := make([]sim.Duration, 0, 1000)
			for i := 0; i < 1000; i++ {
				d := a.Next(now, r)
				now = now.Add(d)
				out = append(out, d)
			}
			return out
		}
		x, y := draw(42), draw(42)
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: draw %d diverged at same seed (%v vs %v)", name, i, x[i], y[i])
			}
		}
		z := draw(43)
		same := true
		for i := range x {
			if x[i] != z[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical schedules", name)
		}
	}
}

// TestBurstyModulates: the burst phase of each period must arrive
// denser than the off phase.
func TestBurstyModulates(t *testing.T) {
	b := Bursty{Rate: 500_000, Period: 10 * sim.Millisecond, BurstFrac: 0.2, BurstMult: 3}
	r := sim.NewRNG(11)
	now := sim.Time(0)
	var on, off int
	for now < sim.Time(100*sim.Millisecond) {
		now = now.Add(b.Next(now, r))
		if float64(now%sim.Time(b.Period))/float64(b.Period) < b.BurstFrac {
			on++
		} else {
			off++
		}
	}
	// 20% of the time at 3x rate vs 80% at 0.5x: per-unit-time density
	// in the burst must clearly exceed the off phase.
	onDensity := float64(on) / 0.2
	offDensity := float64(off) / 0.8
	if onDensity < 2*offDensity {
		t.Fatalf("burst density %.0f not clearly above off density %.0f", onDensity, offDensity)
	}
}

// TestBurstyClampPreservesMean: an infeasible burst multiplier
// (BurstFrac·BurstMult >= 1 would need a negative off-phase rate) is
// clamped so the long-run mean still tracks Rate instead of silently
// drifting above it.
func TestBurstyClampPreservesMean(t *testing.T) {
	const rate = 200_000
	b := Bursty{Rate: rate, BurstFrac: 0.2, BurstMult: 6}
	got := meanRate(t, b, 200*sim.Millisecond, 7)
	if got < 0.85*rate || got > 1.15*rate {
		t.Errorf("clamped bursty realized %.0f/s, want within 15%% of %d/s", got, rate)
	}
	if c := b.withDefaults(); c.BurstFrac*c.BurstMult >= 1 {
		t.Errorf("withDefaults kept infeasible BurstFrac·BurstMult = %.2f", c.BurstFrac*c.BurstMult)
	}
}

func TestArrivalByNameUnknown(t *testing.T) {
	if _, err := ArrivalByName("bogus", 1); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
}
