// Package sim provides the deterministic discrete-event simulation
// substrate that the rest of the library runs on: a virtual clock, a
// seedable random number generator, and an event engine with logical
// CPUs.
//
// Everything in the KLOC reproduction executes in virtual nanoseconds.
// Determinism is a hard requirement: two runs with the same seed and
// configuration produce bit-identical results, which is what makes the
// paper's figures regenerable as Go tests and benchmarks.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of
// the simulation. It is deliberately not time.Time: simulated time has
// no epoch and must never mix with wall-clock time.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the duration in (fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration in (fractional) milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// String formats a duration with an adaptive unit, e.g. "36ms" or "2.0s".
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.1fus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// String formats a time as a duration since the simulation start.
func (t Time) String() string { return Duration(t).String() }
