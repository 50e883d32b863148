package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"kloc/internal/sim"
)

func TestScheduleNormalizeAndHash(t *testing.T) {
	a := Schedule{Injections: []Injection{
		{Point: RxDrop, At: 5 * sim.Millisecond, Burst: 2},
		{Point: BlockIO, At: sim.Millisecond, Err: EIO},
	}}
	b := Schedule{Injections: []Injection{
		{Point: BlockIO, At: sim.Millisecond, Err: EIO, Burst: 1},
		{Point: RxDrop, At: 5 * sim.Millisecond, Burst: 2},
	}}
	if a.Hash() != b.Hash() {
		t.Fatalf("order-insensitive hash differs:\n%s\nvs\n%s", a, b)
	}
	if a.String() != b.String() {
		t.Fatalf("canonical strings differ:\n%s\nvs\n%s", a, b)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("canonical JSON differs:\n%s\nvs\n%s", ja, jb)
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := Schedule{Injections: []Injection{
		{Point: AllocPage, Machine: 1, At: 2 * sim.Millisecond, Err: ENOMEM, Burst: 3},
		{Point: MachineCrash, Machine: 0, At: 4 * sim.Millisecond},
	}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != s.String() {
		t.Fatalf("round trip changed the schedule:\n%s\nvs\n%s", got, s)
	}
	// Errnos serialize as names, not numbers.
	if want := `"errno": "ENOMEM"`; !jsonContains(data, want) {
		t.Fatalf("errno not serialized by name: %s", data)
	}
	if _, err := ParseSchedule([]byte(`{"injections":[{"point":"no.such.point","at_ns":0}]}`)); err == nil {
		t.Fatal("unknown point accepted")
	}
	if _, err := ParseSchedule([]byte(`{"injections":[{"point":"blockdev.io","at_ns":-5}]}`)); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// TestParseScheduleBoundsBurst: a burst up to MaxBurst parses, a longer
// one is EINVAL before Rules can expand it.
func TestParseScheduleBoundsBurst(t *testing.T) {
	for _, c := range []struct {
		burst int
		ok    bool
	}{{MaxBurst, true}, {MaxBurst + 1, false}, {20000000, false}} {
		data := fmt.Sprintf(`{"injections":[{"point":"blockdev.io","at_ns":0,"burst":%d}]}`, c.burst)
		s, err := ParseSchedule([]byte(data))
		if c.ok && (err != nil || len(s.Rules(-1, 0)[BlockIO].Timed) != c.burst) {
			t.Fatalf("burst %d: err %v, schedule %s", c.burst, err, s)
		}
		if !c.ok && !errors.Is(err, EINVAL) {
			t.Fatalf("burst %d: err %v, want EINVAL", c.burst, err)
		}
	}
}

func jsonContains(data []byte, want string) bool {
	var buf []byte
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return false
	}
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return false
	}
	return contains(string(buf), want)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestScheduleBurstFiresConsecutively: a burst of N fails exactly the
// N consecutive consults starting at the first consult at or after the
// injection time, each with the injection's errno.
func TestScheduleBurstFiresConsecutively(t *testing.T) {
	s := Schedule{Injections: []Injection{
		{Point: BlockIO, At: 10 * sim.Microsecond, Err: EAGAIN, Burst: 3},
	}}
	p := NewPlane(s.Config(1, -1, 0))
	if got := p.Check(BlockIO, sim.Time(5*sim.Microsecond)); got != 0 {
		t.Fatalf("injected %v before the scheduled time", got)
	}
	for i := 0; i < 3; i++ {
		if got := p.Check(BlockIO, sim.Time(12*sim.Microsecond)); got != EAGAIN {
			t.Fatalf("burst consult %d returned %v, want EAGAIN", i, got)
		}
	}
	if got := p.Check(BlockIO, sim.Time(13*sim.Microsecond)); got != 0 {
		t.Fatalf("burst overran: consult 4 returned %v", got)
	}
	if p.Injected() != 3 {
		t.Fatalf("injected %d faults, want 3", p.Injected())
	}
}

// TestScheduleRulesPerMachine: machine filtering and rebasing.
func TestScheduleRulesPerMachine(t *testing.T) {
	s := Schedule{Injections: []Injection{
		{Point: AllocSlab, Machine: 0, At: sim.Millisecond},
		{Point: AllocSlab, Machine: 1, At: 2 * sim.Millisecond, Err: EAGAIN},
		{Point: MachineCrash, Machine: 1, At: 3 * sim.Millisecond},
	}}
	base := sim.Time(10 * sim.Millisecond)
	r0 := s.Rules(0, base)
	if len(r0) != 1 || len(r0[AllocSlab].Timed) != 1 {
		t.Fatalf("machine 0 rules: %+v", r0)
	}
	if at := r0[AllocSlab].Timed[0].At; at != base.Add(sim.Millisecond) {
		t.Fatalf("machine 0 injection at %v, want rebased %v", at, base.Add(sim.Millisecond))
	}
	r1 := s.Rules(1, base)
	if len(r1) != 2 {
		t.Fatalf("machine 1 rules: %+v", r1)
	}
	if errno := r1[AllocSlab].Timed[0].Err; errno != EAGAIN {
		t.Fatalf("machine 1 alloc errno %v, want EAGAIN", errno)
	}
	if errno := r1[MachineCrash].Timed[0].Err; errno != DefaultErrno(MachineCrash) {
		t.Fatalf("crash errno %v, want point default", errno)
	}
	// machine -1 compiles everything.
	all := s.Rules(-1, 0)
	if len(all[AllocSlab].Timed) != 2 {
		t.Fatalf("unfiltered rules dropped injections: %+v", all)
	}
}
