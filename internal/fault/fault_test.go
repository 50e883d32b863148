package fault

import (
	"errors"
	"fmt"
	"testing"

	"kloc/internal/sim"
)

func TestErrnoStrings(t *testing.T) {
	cases := []struct {
		e    Errno
		name string
	}{
		{ENOMEM, "ENOMEM"}, {EIO, "EIO"}, {EAGAIN, "EAGAIN"},
		{EBUSY, "EBUSY"}, {EINVAL, "EINVAL"},
	}
	for _, c := range cases {
		if c.e.String() != c.name {
			t.Errorf("String() = %q, want %q", c.e.String(), c.name)
		}
	}
}

func TestAsErrnoUnwraps(t *testing.T) {
	wrapped := fmt.Errorf("submit block 7: %w", EIO)
	e, ok := AsErrno(wrapped)
	if !ok || e != EIO {
		t.Fatalf("AsErrno(wrapped EIO) = %v, %v", e, ok)
	}
	if !errors.Is(wrapped, EIO) {
		t.Fatal("errors.Is should match the wrapped errno")
	}
	if IsErrno(errors.New("plain")) {
		t.Fatal("plain error must not be an errno")
	}
	if IsErrno(nil) {
		t.Fatal("nil must not be an errno")
	}
}

func TestNilPlaneNeverFaults(t *testing.T) {
	var p *Plane
	for i := 0; i < 100; i++ {
		if e := p.Check(BlockIO, sim.Time(i)); e != 0 {
			t.Fatalf("nil plane injected %v", e)
		}
	}
	if p.Injected() != 0 || p.Trace() != nil || p.TraceString() != "" {
		t.Fatal("nil plane must report zero state")
	}
}

func TestUnruledPointNeverFaults(t *testing.T) {
	p := NewPlane(Config{Seed: 1, Rules: map[Point]Rule{BlockIO: {Prob: 1}}})
	for i := 0; i < 100; i++ {
		if e := p.Check(AllocSlab, sim.Time(i)); e != 0 {
			t.Fatalf("unruled point injected %v", e)
		}
	}
	if p.Consults(AllocSlab) != 0 {
		t.Fatal("unruled point should not track consults")
	}
}

func TestProbabilityOneAlwaysFaults(t *testing.T) {
	p := NewPlane(Uniform(42, 1))
	for i := 0; i < 10; i++ {
		if e := p.Check(BlockIO, sim.Time(i)); e != EIO {
			t.Fatalf("consult %d: got %v, want EIO", i, e)
		}
	}
	if got := p.InjectedAt(BlockIO); got != 10 {
		t.Fatalf("InjectedAt = %d, want 10", got)
	}
	// Canonical errnos per point.
	if e := p.Check(AllocSlab, 0); e != ENOMEM {
		t.Fatalf("alloc.slab injects %v, want ENOMEM", e)
	}
	if e := p.Check(Migrate, 0); e != EBUSY {
		t.Fatalf("memsim.migrate injects %v, want EBUSY", e)
	}
	if e := p.Check(RxDrop, 0); e != EAGAIN {
		t.Fatalf("netsim.rxdrop injects %v, want EAGAIN", e)
	}
}

func TestZeroProbabilityDrawsNothing(t *testing.T) {
	// A probability-0 rule must not consume RNG state, so arming the
	// plane at rate 0 is indistinguishable from no plane at all.
	p := NewPlane(Uniform(7, 0))
	for i := 0; i < 1000; i++ {
		if e := p.Check(AllocPage, sim.Time(i)); e != 0 {
			t.Fatalf("rate-0 plane injected %v", e)
		}
	}
	if p.Injected() != 0 {
		t.Fatal("rate-0 plane injected faults")
	}
	if p.Consults(AllocPage) != 1000 {
		t.Fatalf("consults = %d, want 1000", p.Consults(AllocPage))
	}
}

func TestScheduledInjection(t *testing.T) {
	p := NewPlane(Config{Seed: 3, Rules: map[Point]Rule{
		BlockIO: {Timed: []TimedInjection{{At: 100, Err: EIO}, {At: 250, Err: EIO}}},
	}})
	type step struct {
		at   sim.Time
		want Errno
	}
	steps := []step{
		{10, 0},    // before first schedule
		{99, 0},    // still before
		{120, EIO}, // first consult at/after t=100
		{130, 0},   // fired once, not again
		{250, EIO}, // exactly at second schedule
		{300, 0},   // exhausted
	}
	for _, s := range steps {
		if got := p.Check(BlockIO, s.at); got != s.want {
			t.Fatalf("Check at %d = %v, want %v", s.at, got, s.want)
		}
	}
	if p.Injected() != 2 {
		t.Fatalf("Injected = %d, want 2", p.Injected())
	}
}

// TestDeterministicTrace: same seed + same rules ⇒ byte-identical
// traces; a different seed diverges.
func TestDeterministicTrace(t *testing.T) {
	run := func(seed uint64) string {
		p := NewPlane(Uniform(seed, 0.05))
		for i := 0; i < 2000; i++ {
			for _, pt := range Points() {
				p.Check(pt, sim.Time(i))
			}
		}
		return p.TraceString()
	}
	a, b := run(1234), run(1234)
	if a == "" {
		t.Fatal("expected some injections at prob 0.05 over 10000 consults")
	}
	if a != b {
		t.Fatal("same seed produced different fault traces")
	}
	if c := run(5678); c == a {
		t.Fatal("different seed produced identical fault trace")
	}
}

// TestPointStreamIndependence: adding a rule for one point must not
// change another point's injection sequence.
func TestPointStreamIndependence(t *testing.T) {
	trace := func(cfg Config) []Record {
		p := NewPlane(cfg)
		for i := 0; i < 5000; i++ {
			p.Check(BlockIO, sim.Time(i))
			p.Check(AllocPage, sim.Time(i))
		}
		var only []Record
		for _, r := range p.Trace() {
			if r.Point == BlockIO {
				only = append(only, Record{At: r.At, Point: r.Point, Err: r.Err})
			}
		}
		return only
	}
	base := trace(Config{Seed: 77, Rules: map[Point]Rule{BlockIO: {Prob: 0.02}}})
	with := trace(Config{Seed: 77, Rules: map[Point]Rule{
		BlockIO:   {Prob: 0.02},
		AllocPage: {Prob: 0.5},
	}})
	if len(base) == 0 {
		t.Fatal("expected BlockIO injections")
	}
	if len(base) != len(with) {
		t.Fatalf("BlockIO trace length changed: %d vs %d", len(base), len(with))
	}
	for i := range base {
		if base[i] != with[i] {
			t.Fatalf("BlockIO record %d changed: %+v vs %+v", i, base[i], with[i])
		}
	}
}

func TestProbabilityRoughlyCalibrated(t *testing.T) {
	p := NewPlane(Uniform(11, 0.1))
	const n = 20000
	for i := 0; i < n; i++ {
		p.Check(BlockIO, sim.Time(i))
	}
	got := float64(p.InjectedAt(BlockIO)) / n
	if got < 0.08 || got > 0.12 {
		t.Fatalf("injection rate %.4f too far from 0.1", got)
	}
}
