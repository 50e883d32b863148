package fault

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"kloc/internal/sim"
)

// Schedule is a serializable fault schedule: a list of exact-time
// injections sampled by the chaos generator (internal/chaos) and
// replayed from CHAOS_repro_*.json artifacts. Injection times are
// offsets from a base the executing harness supplies (the measured
// window's start), so the same schedule means the same thing across
// runs whose setup phases take different amounts of virtual time.
//
// A Schedule is pure data — no RNG state, no probabilities — which is
// what makes delta-debugging minimization sound: removing an injection
// from the list never perturbs when the remaining ones fire.
type Schedule struct {
	Injections []Injection `json:"injections"`
}

// Injection is one scheduled fault in a chaos schedule.
type Injection struct {
	// Point is the fault point to fire.
	Point Point `json:"point"`
	// Machine targets one fleet machine for cluster runs (kernel-level
	// points inject into that machine's kernel; cluster.crash/degrade
	// hit that machine). Single-machine harnesses ignore it.
	Machine int `json:"machine"`
	// At is the injection time as a virtual-time offset (nanoseconds)
	// from the schedule base.
	At sim.Duration `json:"at_ns"`
	// Err is the injected errno; zero means the point's DefaultErrno.
	Err Errno `json:"errno,omitempty"`
	// Burst is how many consecutive consults of the point fail starting
	// at At (0 and 1 both mean a single injection). ParseSchedule
	// rejects a burst above MaxBurst: Rules expands a burst into one
	// entry per failing consult, so an unchecked burst in a hand-edited
	// artifact could exhaust memory. The generator draws 2-4 and
	// minimization never grows a burst; 64 leaves room for hand-written
	// schedules and is far past the simulator's longest retry loop (4
	// attempts), so every retry already gives up inside a capped burst.
	Burst int `json:"burst,omitempty"`
}

// MaxBurst is the longest Injection.Burst ParseSchedule accepts.
const MaxBurst = 64

// String renders one injection compactly ("alloc.page@2.5ms m1 ENOMEM x3").
func (in Injection) String() string {
	s := fmt.Sprintf("%s@%s m%d", in.Point, in.At, in.Machine)
	if in.Err != 0 {
		s += " " + in.Err.String()
	}
	if in.Burst > 1 {
		s += fmt.Sprintf(" x%d", in.Burst)
	}
	return s
}

// burst returns the effective burst length (>= 1).
func (in Injection) burst() int {
	if in.Burst < 1 {
		return 1
	}
	return in.Burst
}

// Normalize returns the schedule in canonical order — sorted by time,
// then point, machine, errno, burst — with burst lengths clamped to at
// least 1. Two schedules with the same injections serialize and hash
// identically after normalization.
func (s Schedule) Normalize() Schedule {
	out := Schedule{Injections: make([]Injection, len(s.Injections))}
	copy(out.Injections, s.Injections)
	for i := range out.Injections {
		out.Injections[i].Burst = out.Injections[i].burst()
	}
	sort.SliceStable(out.Injections, func(i, j int) bool {
		a, b := out.Injections[i], out.Injections[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Point != b.Point {
			return a.Point < b.Point
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Err != b.Err {
			return a.Err < b.Err
		}
		return a.Burst < b.Burst
	})
	return out
}

// String renders the schedule one injection per line, in canonical
// order (artifact and log form).
func (s Schedule) String() string {
	n := s.Normalize()
	if len(n.Injections) == 0 {
		return "(empty schedule)"
	}
	parts := make([]string, len(n.Injections))
	for i, in := range n.Injections {
		parts[i] = in.String()
	}
	return strings.Join(parts, "\n")
}

// Hash is a stable FNV-1a fingerprint of the canonical schedule, used
// to name replay artifacts (CHAOS_repro_<hash>.json).
func (s Schedule) Hash() uint64 {
	return fnv64(s.String())
}

// MarshalJSON serializes the canonical form, so artifacts round-trip
// byte-identically regardless of generation order.
func (s Schedule) MarshalJSON() ([]byte, error) {
	n := s.Normalize()
	type plain Schedule // avoid recursing into this method
	return json.Marshal(plain(n))
}

// Rules compiles the schedule into per-point plane rules for one
// machine, with injection offsets rebased onto the given absolute
// start time. Bursts expand into equal-time entries: the plane fires
// one per consult, so a burst of N fails N consecutive consults.
// Injections for other machines are skipped; machine < 0 compiles the
// whole schedule (the single-machine harness view).
func (s Schedule) Rules(machine int, base sim.Time) map[Point]Rule {
	rules := make(map[Point]Rule)
	for _, in := range s.Normalize().Injections {
		if machine >= 0 && in.Machine != machine {
			continue
		}
		r := rules[in.Point]
		at := base.Add(in.At)
		errno := in.Err
		if errno == 0 {
			errno = DefaultErrno(in.Point)
		}
		for i := 0; i < in.burst(); i++ {
			r.Timed = append(r.Timed, TimedInjection{At: at, Err: errno})
		}
		rules[in.Point] = r
	}
	if len(rules) == 0 {
		return nil
	}
	return rules
}

// Config compiles the schedule into a full plane config for one
// machine (see Rules). The seed only matters if rules with
// probabilities are later merged in; pure schedules never draw.
func (s Schedule) Config(seed uint64, machine int, base sim.Time) Config {
	return Config{Seed: seed, Rules: s.Rules(machine, base)}
}

// Without returns a copy of the schedule with the injections at the
// given canonical indices removed — the delta-debugging minimizer's
// reduction step.
func (s Schedule) Without(drop map[int]bool) Schedule {
	n := s.Normalize()
	out := Schedule{}
	for i, in := range n.Injections {
		if !drop[i] {
			out.Injections = append(out.Injections, in)
		}
	}
	return out
}

// ParseSchedule deserializes a schedule from its JSON form.
func ParseSchedule(data []byte) (Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return Schedule{}, fmt.Errorf("fault: parse schedule: %w", err)
	}
	for _, in := range s.Injections {
		if !KnownPoint(in.Point) {
			return Schedule{}, fmt.Errorf("fault: schedule names unknown point %q: %w", in.Point, EINVAL)
		}
		if in.At < 0 {
			return Schedule{}, fmt.Errorf("fault: schedule injection %s before base: %w", in, EINVAL)
		}
		if in.Burst > MaxBurst {
			return Schedule{}, fmt.Errorf("fault: schedule injection %s bursts past %d: %w", in, MaxBurst, EINVAL)
		}
	}
	return s.Normalize(), nil
}

// KnownPoint reports whether pt is in the catalog.
func KnownPoint(pt Point) bool {
	for _, p := range Points() {
		if p == pt {
			return true
		}
	}
	return false
}
