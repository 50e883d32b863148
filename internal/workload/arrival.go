package workload

import (
	"fmt"
	"math"

	"kloc/internal/sim"
)

// Arrival is an open-loop arrival process: the request generator of a
// cluster serving scenario. Next returns the gap to the following
// arrival, given the current virtual time (time-varying processes
// modulate their rate by it) and a seeded RNG. Open-loop means the
// process never waits for the system: arrivals keep coming at the
// offered rate whether or not the cluster keeps up, which is what
// exposes a capacity knee.
type Arrival interface {
	// Name identifies the process shape ("poisson", "bursty",
	// "diurnal").
	Name() string
	// Next draws the interarrival gap to the next request.
	Next(now sim.Time, r *sim.RNG) sim.Duration
}

// expGap draws an exponential interarrival gap for a Poisson process
// of the given rate (arrivals per virtual second).
func expGap(rate float64, r *sim.RNG) sim.Duration {
	if rate <= 0 {
		return sim.Second
	}
	// Inverse-CDF sampling; 1-U avoids log(0).
	gap := -math.Log(1-r.Float64()) / rate
	d := sim.Duration(gap * float64(sim.Second))
	if d < 1 {
		d = 1
	}
	return d
}

// Poisson is a stationary Poisson process: independent exponential
// interarrival gaps at a fixed mean rate.
type Poisson struct {
	// Rate is the mean arrival rate in requests per virtual second.
	Rate float64
}

// Name implements Arrival.
func (p Poisson) Name() string { return "poisson" }

// Next implements Arrival.
func (p Poisson) Next(_ sim.Time, r *sim.RNG) sim.Duration { return expGap(p.Rate, r) }

// Bursty is a Markov-modulated Poisson process with a deterministic
// ON/OFF phase: during the burst fraction of every period the rate
// multiplies, and outside it the rate drops so the long-run mean stays
// Rate. It models flash-crowd traffic whose time-average equals a
// Poisson process of the same rate — the bursts are what stress the
// cluster's shedding and queueing.
type Bursty struct {
	// Rate is the long-run mean arrival rate (requests per second).
	Rate float64
	// Period is one ON/OFF cycle (default 10 ms).
	Period sim.Duration
	// BurstFrac is the fraction of each period spent bursting
	// (default 0.2).
	BurstFrac float64
	// BurstMult multiplies the rate during the burst (default 3). The
	// long-run mean can only stay Rate while BurstFrac·BurstMult < 1
	// (the off phase must absorb the burst); values at or past that
	// bound are clamped just below it.
	BurstMult float64
}

func (b Bursty) withDefaults() Bursty {
	if b.Period <= 0 {
		b.Period = 10 * sim.Millisecond
	}
	if b.BurstFrac <= 0 || b.BurstFrac >= 1 {
		b.BurstFrac = 0.2
	}
	if b.BurstMult <= 1 {
		b.BurstMult = 3
	}
	// The off-phase rate (1-BurstFrac·BurstMult)/(1-BurstFrac)·Rate must
	// stay positive or the long-run mean would silently drift above
	// Rate; clamp the multiplier inside the feasible region rather than
	// flooring the off-phase rate.
	if limit := 1 / b.BurstFrac; b.BurstMult >= limit {
		b.BurstMult = 0.99 * limit
	}
	return b
}

// Name implements Arrival.
func (b Bursty) Name() string { return "bursty" }

// Next implements Arrival.
func (b Bursty) Next(now sim.Time, r *sim.RNG) sim.Duration {
	b = b.withDefaults()
	phase := float64(now%sim.Time(b.Period)) / float64(b.Period)
	rate := b.Rate
	if phase < b.BurstFrac {
		rate *= b.BurstMult
	} else {
		// Off-phase rate chosen so the period's mean equals Rate;
		// withDefaults keeps BurstFrac·BurstMult < 1, so it is positive.
		rate *= (1 - b.BurstFrac*b.BurstMult) / (1 - b.BurstFrac)
	}
	return expGap(rate, r)
}

// Diurnal modulates a Poisson process sinusoidally between a trough
// and a peak over one period — the compressed day/night cycle of a
// user-facing service. The mean over a whole period is Rate.
type Diurnal struct {
	// Rate is the mean arrival rate (requests per second).
	Rate float64
	// Period is one full day-night cycle (default 40 ms: a compressed
	// day that fits several cycles in a measured run).
	Period sim.Duration
	// Swing in [0,1) is the peak-to-mean amplitude: rate(t) ranges over
	// Rate·(1±Swing) (default 0.6).
	Swing float64
}

func (d Diurnal) withDefaults() Diurnal {
	if d.Period <= 0 {
		d.Period = 40 * sim.Millisecond
	}
	if d.Swing <= 0 || d.Swing >= 1 {
		d.Swing = 0.6
	}
	return d
}

// Name implements Arrival.
func (d Diurnal) Name() string { return "diurnal" }

// Next implements Arrival.
func (d Diurnal) Next(now sim.Time, r *sim.RNG) sim.Duration {
	d = d.withDefaults()
	phase := 2 * math.Pi * float64(now%sim.Time(d.Period)) / float64(d.Period)
	rate := d.Rate * (1 + d.Swing*math.Sin(phase))
	if rate <= 0 {
		rate = d.Rate * 0.01
	}
	return expGap(rate, r)
}

// ArrivalByName constructs an arrival process of the named shape with
// the given long-run mean rate (requests per virtual second).
func ArrivalByName(name string, rate float64) (Arrival, error) {
	switch name {
	case "poisson":
		return Poisson{Rate: rate}, nil
	case "bursty":
		return Bursty{Rate: rate}, nil
	case "diurnal":
		return Diurnal{Rate: rate}, nil
	}
	return nil, fmt.Errorf("workload: unknown arrival process %q (valid: poisson, bursty, diurnal)", name)
}
