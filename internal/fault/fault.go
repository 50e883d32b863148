// Package fault is the simulator's deterministic fault-injection
// plane. Real tiered-memory stacks spend most of their complexity on
// the unhappy paths — allocation failure, transient I/O errors, busy
// migrations, dropped packets — yet a simulator that only models the
// happy path cannot say anything about how a placement policy behaves
// under stress. This package gives every subsystem a named fault point
// it consults before committing work; a Plane decides, deterministically,
// whether that consult fails and with which errno.
//
// Determinism: each fault point draws from its own RNG stream, forked
// from the plane seed and the point name. Adding or removing a rule for
// one point therefore never perturbs another point's fault sequence,
// and no draw ever touches the workload's RNG — a run with a fault
// plane at probability zero is bit-identical to a run with no plane at
// all. Identical seed + identical rules ⇒ identical fault trace.
package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"kloc/internal/sim"
)

// Errno is the simulator's errno-style typed error. Subsystems return
// these (possibly wrapped) instead of panicking, so callers can pattern
// match on the failure class the way kernel code does.
type Errno uint8

// The errno values the simulated kernel surfaces.
const (
	// ENOMEM: allocation failed (node full or injected exhaustion).
	ENOMEM Errno = iota + 1
	// EIO: the storage device failed the command.
	EIO
	// EAGAIN: transient condition — retry later (dropped ingress
	// packet, momentary allocation failure).
	EAGAIN
	// EBUSY: the resource is busy; the operation should be retried
	// (a page whose migration lost the race).
	EBUSY
	// EINVAL: invalid argument (e.g. a slab object size out of range).
	EINVAL
	// ENOENT: no such entry (a path lookup missed, an inode number is
	// not allocated).
	ENOENT
	// EBADF: operation on a closed or invalid descriptor (socket or
	// file already torn down).
	EBADF
	// ETIMEDOUT: the operation's deadline expired before it completed
	// (a cluster request whose backend did not answer in time).
	ETIMEDOUT
)

func (e Errno) Error() string {
	switch e {
	case ENOMEM:
		return "ENOMEM: out of memory"
	case EIO:
		return "EIO: I/O error"
	case EAGAIN:
		return "EAGAIN: resource temporarily unavailable"
	case EBUSY:
		return "EBUSY: device or resource busy"
	case EINVAL:
		return "EINVAL: invalid argument"
	case ENOENT:
		return "ENOENT: no such file or directory"
	case EBADF:
		return "EBADF: bad file descriptor"
	case ETIMEDOUT:
		return "ETIMEDOUT: operation timed out"
	default:
		return fmt.Sprintf("errno(%d)", uint8(e))
	}
}

// String returns the short errno name ("EIO"), used in fault traces.
func (e Errno) String() string {
	s := e.Error()
	if i := strings.IndexByte(s, ':'); i >= 0 {
		return s[:i]
	}
	return s
}

// Errnos lists every errno value in declaration order.
func Errnos() []Errno {
	return []Errno{ENOMEM, EIO, EAGAIN, EBUSY, EINVAL, ENOENT, EBADF, ETIMEDOUT}
}

// ErrnoByName resolves a short errno name ("EIO") back to its value —
// the inverse of String, used when deserializing fault schedules.
func ErrnoByName(name string) (Errno, bool) {
	for _, e := range Errnos() {
		if e.String() == name {
			return e, true
		}
	}
	return 0, false
}

// MarshalJSON serializes the errno as its short name so schedule and
// replay artifacts stay human-readable ("EIO", not 2).
func (e Errno) MarshalJSON() ([]byte, error) {
	return json.Marshal(e.String())
}

// UnmarshalJSON accepts the short name ("EIO") or a raw numeric value.
func (e *Errno) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, ok := ErrnoByName(s)
		if !ok {
			return fmt.Errorf("fault: unknown errno %q", s)
		}
		*e = v
		return nil
	}
	var n uint8
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("fault: errno must be a name or number: %s", data)
	}
	*e = Errno(n)
	return nil
}

// AsErrno extracts an Errno from err, unwrapping as needed.
func AsErrno(err error) (Errno, bool) {
	var e Errno
	if errors.As(err, &e) {
		return e, true
	}
	return 0, false
}

// IsErrno reports whether err carries an Errno anywhere in its chain —
// i.e. whether the failure is a modeled kernel error (recoverable,
// degradable) rather than a harness or programming error.
func IsErrno(err error) bool {
	_, ok := AsErrno(err)
	return ok
}

// Point names one fault-injection site. Subsystems consult their point
// via Plane.Check before committing the guarded operation.
type Point string

// The fault points the simulated kernel consults.
const (
	// BlockIO fails a storage-device command (transient EIO; the blk_mq
	// layer retries with backoff).
	BlockIO Point = "blockdev.io"
	// AllocSlab fails a slab-class page allocation (slab, KLOC-arena,
	// and metadata frames).
	AllocSlab Point = "alloc.slab"
	// AllocPage fails an app/page-cache page allocation.
	AllocPage Point = "alloc.page"
	// Migrate fails one page migration (the frame stays put and is
	// retried on a later tick).
	Migrate Point = "memsim.migrate"
	// RxDrop drops one ingress packet segment in the driver.
	RxDrop Point = "netsim.rxdrop"
	// Reclaim fails one reclaim round (direct or kswapd): the shrinkers
	// are not scanned and the round makes no progress.
	Reclaim Point = "pressure.reclaim"
	// MachineCrash fails one whole simulated machine in a cluster: the
	// machine drops its queue and in-flight work, loses its caches, and
	// restarts cold after the configured downtime. Consulted by the
	// cluster plane at service starts and health probes, so a scheduled
	// crash fires within one probe period even on an idle machine.
	MachineCrash Point = "cluster.crash"
	// MachineDegrade degrades one machine's fast tier for a window: the
	// machine stays up but serves every request at slow-tier speed.
	MachineDegrade Point = "cluster.degrade"
)

// Points lists every fault point in stable order.
func Points() []Point {
	return []Point{BlockIO, AllocSlab, AllocPage, Migrate, RxDrop, Reclaim,
		MachineCrash, MachineDegrade}
}

// DefaultErrno is the canonical errno each point injects: every
// probabilistic injection, and every scheduled one that names none
// (Schedule.Rules resolves it).
func DefaultErrno(pt Point) Errno {
	switch pt {
	case BlockIO:
		return EIO
	case AllocSlab, AllocPage:
		return ENOMEM
	case Migrate:
		return EBUSY
	case RxDrop:
		return EAGAIN
	case Reclaim:
		return ENOMEM
	case MachineCrash:
		return EIO
	case MachineDegrade:
		return EAGAIN
	default:
		return EIO
	}
}

// Rule configures injection at one point. Probability and schedule
// compose: scheduled times fire exactly once each (on the first consult
// at or after the time), probability applies to every other consult
// and injects the point's DefaultErrno.
type Rule struct {
	// Prob is the per-consult injection probability in [0, 1].
	Prob float64
	// Timed schedules exact virtual-time injections, ascending by At.
	// Schedule.Rules compiles a fault schedule into these, resolving
	// each injection's errno.
	Timed []TimedInjection
}

// TimedInjection is one exact-virtual-time scheduled injection.
type TimedInjection struct {
	// At is the virtual time; the first consult at or after it injects.
	At sim.Time
	// Err is the injected errno.
	Err Errno
}

// Config seeds a Plane. The zero value (no rules) injects nothing.
type Config struct {
	// Seed drives every point's private RNG stream.
	Seed uint64
	// Rules maps points to their injection rules.
	Rules map[Point]Rule
}

// Uniform returns a Config injecting each point's canonical errno with
// the same per-consult probability at every fault point — the shape the
// fault-rate sweep experiment uses.
func Uniform(seed uint64, prob float64) Config {
	c := Config{Seed: seed, Rules: make(map[Point]Rule, len(Points()))}
	for _, pt := range Points() {
		c.Rules[pt] = Rule{Prob: prob}
	}
	return c
}

// Record is one injected fault in the trace.
type Record struct {
	// Seq is the injection's global sequence number (0-based).
	Seq uint64
	// At is the virtual time of the consult that faulted.
	At sim.Time
	// Point is the site that faulted.
	Point Point
	// Err is the injected errno.
	Err Errno
}

func (r Record) String() string {
	return fmt.Sprintf("%d %d %s %s", r.Seq, int64(r.At), r.Point, r.Err)
}

// pointState is one point's live injection state.
type pointState struct {
	rule Rule
	// rng drives this point's probabilistic draws; consulted only by
	// the plane's own kernel instance.
	rng       *sim.RNG
	nextSched int
	consults  uint64
	injected  uint64
}

// Plane is an armed fault-injection plane. A nil *Plane is valid and
// injects nothing, so subsystems hold a possibly-nil Plane and call
// Check unconditionally.
type Plane struct {
	points map[Point]*pointState
	trace  []Record
	seq    uint64
}

// NewPlane arms a plane from a config. Points without rules never
// fault and never draw randomness.
func NewPlane(cfg Config) *Plane {
	p := &Plane{points: make(map[Point]*pointState, len(cfg.Rules))}
	//klocs:unordered arming writes one independent entry per point; RNG streams are seeded by point name
	for pt, rule := range cfg.Rules {
		p.points[pt] = &pointState{
			rule: rule,
			// A private stream per point: seed mixed with the point name
			// so streams are independent and stable.
			rng: sim.NewRNG(cfg.Seed ^ fnv64(string(pt))),
		}
	}
	return p
}

// fnv64 is the FNV-1a hash, used to derive per-point RNG seeds.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Check consults a fault point at the given virtual time. It returns 0
// (no fault) or the errno to inject. Nil-safe: a nil plane never
// faults. Points with probability-0 rules and no schedule return 0
// without drawing randomness.
func (p *Plane) Check(pt Point, now sim.Time) Errno {
	if p == nil {
		return 0
	}
	st := p.points[pt]
	if st == nil {
		return 0
	}
	st.consults++
	// Scheduled injections take precedence and fire exactly once each.
	if timed := st.rule.Timed; st.nextSched < len(timed) && now >= timed[st.nextSched].At {
		errno := timed[st.nextSched].Err
		st.nextSched++
		return p.inject(pt, st, now, errno)
	}
	if st.rule.Prob > 0 && st.rng.Float64() < st.rule.Prob {
		return p.inject(pt, st, now, DefaultErrno(pt))
	}
	return 0
}

func (p *Plane) inject(pt Point, st *pointState, now sim.Time, errno Errno) Errno {
	st.injected++
	p.trace = append(p.trace, Record{Seq: p.seq, At: now, Point: pt, Err: errno})
	p.seq++
	return errno
}

// Injected reports the total number of injected faults.
func (p *Plane) Injected() uint64 {
	if p == nil {
		return 0
	}
	return p.seq
}

// InjectedAt reports the number of faults injected at one point.
func (p *Plane) InjectedAt(pt Point) uint64 {
	if p == nil || p.points[pt] == nil {
		return 0
	}
	return p.points[pt].injected
}

// Consults reports how many times a point was consulted.
func (p *Plane) Consults(pt Point) uint64 {
	if p == nil || p.points[pt] == nil {
		return 0
	}
	return p.points[pt].consults
}

// Trace returns the injected-fault records in injection order.
func (p *Plane) Trace() []Record {
	if p == nil {
		return nil
	}
	return p.trace
}

// TraceString serializes the fault trace, one record per line, in a
// stable format ("seq time point errno"). Two runs with the same seed
// and rules produce byte-identical trace strings.
func (p *Plane) TraceString() string {
	if p == nil || len(p.trace) == 0 {
		return ""
	}
	var b strings.Builder
	for _, r := range p.trace {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
