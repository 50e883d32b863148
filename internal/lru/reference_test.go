package lru

import (
	"container/list"
	"fmt"
	"testing"

	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// refLists is the container/list + member-map implementation that the
// intrusive lists replaced, kept verbatim as the differential
// reference: every entry is a heap object beside the frame, found
// through an ID-keyed map.
type refLists struct {
	active       *list.List // front = most recently activated
	inactive     *list.List
	member       map[memsim.FrameID]*refEntry
	ScannedPages uint64
}

type refEntry struct {
	frame  *memsim.Frame
	seen   sim.Time
	active bool
	elem   *list.Element
}

func newRefLists() *refLists {
	return &refLists{
		active:   list.New(),
		inactive: list.New(),
		member:   make(map[memsim.FrameID]*refEntry),
	}
}

func (l *refLists) Len() (int, int) { return l.active.Len(), l.inactive.Len() }

func (l *refLists) Contains(f *memsim.Frame) bool {
	_, ok := l.member[f.ID]
	return ok
}

func (l *refLists) Add(f *memsim.Frame, now sim.Time) {
	if _, ok := l.member[f.ID]; ok {
		return
	}
	e := &refEntry{frame: f, seen: now}
	e.elem = l.inactive.PushFront(e)
	l.member[f.ID] = e
}

func (l *refLists) Remove(f *memsim.Frame) {
	e, ok := l.member[f.ID]
	if !ok {
		return
	}
	if e.active {
		l.active.Remove(e.elem)
	} else {
		l.inactive.Remove(e.elem)
	}
	delete(l.member, f.ID)
}

func (l *refLists) MarkAccessed(f *memsim.Frame, now sim.Time) {
	e, ok := l.member[f.ID]
	if !ok {
		return
	}
	e.seen = now
	if e.active {
		l.active.MoveToFront(e.elem)
		return
	}
	l.inactive.Remove(e.elem)
	e.active = true
	e.elem = l.active.PushFront(e)
}

func (l *refLists) ScanInactive(n int, now sim.Time) (cold []*memsim.Frame, cost sim.Duration) {
	for i := 0; i < n; i++ {
		back := l.inactive.Back()
		if back == nil {
			break
		}
		e := back.Value.(*refEntry)
		l.ScannedPages++
		cost += ScanCostPerPage
		if e.frame.LastAccess > e.seen {
			e.seen = now
			l.inactive.Remove(e.elem)
			e.active = true
			e.elem = l.active.PushFront(e)
			continue
		}
		e.seen = now
		l.inactive.MoveToFront(e.elem)
		cold = append(cold, e.frame)
	}
	return cold, cost
}

func (l *refLists) Balance(ratio float64, now sim.Time) sim.Duration {
	if ratio <= 0 {
		ratio = 2
	}
	var cost sim.Duration
	for float64(l.active.Len()) > ratio*float64(l.inactive.Len()+1) {
		back := l.active.Back()
		if back == nil {
			break
		}
		e := back.Value.(*refEntry)
		l.ScannedPages++
		cost += ScanCostPerPage
		if e.frame.LastAccess > e.seen {
			e.seen = now
			l.active.MoveToFront(e.elem)
			continue
		}
		l.active.Remove(e.elem)
		e.active = false
		e.seen = now
		e.elem = l.inactive.PushFront(e)
	}
	return cost
}

func (l *refLists) OldestInactive(n int) []*memsim.Frame {
	out := make([]*memsim.Frame, 0, n)
	for e := l.inactive.Back(); e != nil && len(out) < n; e = e.Prev() {
		out = append(out, e.Value.(*refEntry).frame)
	}
	return out
}

func (l *refLists) HottestActive(n int, cutoff sim.Time) ([]*memsim.Frame, sim.Duration) {
	out := make([]*memsim.Frame, 0, n)
	var cost sim.Duration
	for e := l.active.Front(); e != nil && len(out) < n; e = e.Next() {
		l.ScannedPages++
		cost += ScanCostPerPage
		f := e.Value.(*refEntry).frame
		if f.LastAccess >= cutoff {
			out = append(out, f)
		} else {
			break
		}
	}
	return out, cost
}

// sameFrames compares two returned frame slices element by element.
func sameFrames(t *testing.T, where string, got, want []*memsim.Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, reference %d", where, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: frame %d is %d, reference %d", where, i, got[i].ID, want[i].ID)
		}
	}
}

// sameState compares one domain with its reference: lengths, scan
// work, the full front-to-back order of both lists, and every listed
// frame's scan stamp.
func sameState(t *testing.T, where string, got *Lists, want *refLists) {
	t.Helper()
	ga, gi := got.Len()
	wa, wi := want.Len()
	if ga != wa || gi != wi {
		t.Fatalf("%s: lengths %d/%d, reference %d/%d", where, ga, gi, wa, wi)
	}
	if got.ScannedPages != want.ScannedPages {
		t.Fatalf("%s: ScannedPages %d, reference %d", where, got.ScannedPages, want.ScannedPages)
	}
	for _, side := range []struct {
		name string
		got  *memsim.FrameList
		want *list.List
	}{{"active", &got.active, want.active}, {"inactive", &got.inactive, want.inactive}} {
		f, e := side.got.Front(), side.want.Front()
		for pos := 0; f != nil || e != nil; pos++ {
			if f == nil || e == nil {
				t.Fatalf("%s: %s list ends early at %d", where, side.name, pos)
			}
			re := e.Value.(*refEntry)
			if f != re.frame {
				t.Fatalf("%s: %s[%d] is frame %d, reference %d", where, side.name, pos, f.ID, re.frame.ID)
			}
			if f.Seen != re.seen {
				t.Fatalf("%s: frame %d seen %d, reference %d", where, f.ID, f.Seen, re.seen)
			}
			f, e = f.Next(), e.Next()
		}
	}
}

// TestListsMatchReference drives seeded random operation sequences
// over several domains through Lists and refLists and requires them to
// agree after every operation: lengths, membership of every frame,
// list order, scan stamps, the order of every returned frame, costs
// and ScannedPages. Frames move between domains the way the tiering
// engine's moveTracked moves them (Remove from the source domain, Add
// to the destination), including whole cold batches with duplicates.
func TestListsMatchReference(t *testing.T) {
	const domains, nFrames = 3, 40
	for _, seed := range []uint64{1, 2, 3, 7, 42} {
		rng := sim.NewRNG(seed)
		got := make([]*Lists, domains)
		want := make([]*refLists, domains)
		for d := range got {
			got[d], want[d] = New(), newRefLists()
		}
		frames := make([]*memsim.Frame, nFrames)
		for i := range frames {
			frames[i] = &memsim.Frame{ID: memsim.FrameID(i + 1)}
		}
		// home[i] is the domain listing frames[i] (-1: none). A frame is
		// in at most one domain, as in the tiering engine.
		home := make([]int, nFrames)
		for i := range home {
			home[i] = -1
		}
		move := func(f *memsim.Frame, src, dst int, now sim.Time) {
			got[src].Remove(f)
			want[src].Remove(f)
			got[dst].Add(f, now)
			want[dst].Add(f, now)
			home[int(f.ID)-1] = dst
		}
		var now sim.Time
		for step := 0; step < 6000; step++ {
			now += sim.Time(1 + rng.Intn(3))
			d := rng.Intn(domains)
			i := rng.Intn(nFrames)
			f := frames[i]
			at := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(100); {
			case op < 18: // Add: a listed frame re-adds to its own domain (no-op)
				if home[i] >= 0 {
					d = home[i]
				}
				got[d].Add(f, now)
				want[d].Add(f, now)
				home[i] = d
			case op < 26: // Remove, often from a domain that does not list f
				got[d].Remove(f)
				want[d].Remove(f)
				if home[i] == d {
					home[i] = -1
				}
			case op < 44:
				got[d].MarkAccessed(f, now)
				want[d].MarkAccessed(f, now)
			case op < 60:
				f.LastAccess = now
			case op < 68:
				n := rng.Intn(12)
				gc, gcost := got[d].ScanInactive(n, now)
				wc, wcost := want[d].ScanInactive(n, now)
				sameFrames(t, at+" ScanInactive", gc, wc)
				if gcost != wcost {
					t.Fatalf("%s ScanInactive: cost %v, reference %v", at, gcost, wcost)
				}
				if rng.Intn(2) == 0 && len(gc) > 0 {
					// Demote the cold batch the way moveTracked does,
					// duplicates included.
					dst := (d + 1 + rng.Intn(domains-1)) % domains
					for _, c := range gc {
						move(c, d, dst, now)
					}
				}
			case op < 76:
				ratio := []float64{0, 0.5, 1, 2}[rng.Intn(4)]
				if g, w := got[d].Balance(ratio, now), want[d].Balance(ratio, now); g != w {
					t.Fatalf("%s Balance: cost %v, reference %v", at, g, w)
				}
			case op < 81:
				n := rng.Intn(8)
				sameFrames(t, at+" OldestInactive", got[d].OldestInactive(n), want[d].OldestInactive(n))
			case op < 88:
				n := rng.Intn(8)
				cutoff := now - sim.Time(rng.Intn(60))
				gh, gcost := got[d].HottestActive(n, cutoff)
				wh, wcost := want[d].HottestActive(n, cutoff)
				sameFrames(t, at+" HottestActive", gh, wh)
				if gcost != wcost {
					t.Fatalf("%s HottestActive: cost %v, reference %v", at, gcost, wcost)
				}
				if rng.Intn(2) == 0 {
					// Promote the hot batch the way moveTracked does.
					dst := (d + 1 + rng.Intn(domains-1)) % domains
					for _, h := range gh {
						move(h, d, dst, now)
					}
				}
			default: // move one listed frame to another domain
				if src := home[i]; src >= 0 {
					move(f, src, (src+1+rng.Intn(domains-1))%domains, now)
				}
			}
			for dd := range got {
				sameState(t, fmt.Sprintf("%s domain %d", at, dd), got[dd], want[dd])
				for _, fr := range frames {
					if g, w := got[dd].Contains(fr), want[dd].Contains(fr); g != w {
						t.Fatalf("%s: domain %d Contains(frame %d) = %v, reference %v", at, dd, fr.ID, g, w)
					}
				}
			}
		}
	}
}

// TestHotPathsAllocateNothing: on a warm domain, Add, MarkAccessed,
// Remove and Balance only relink frames already on hand.
func TestHotPathsAllocateNothing(t *testing.T) {
	l := New()
	fs := frames(64)
	for _, f := range fs {
		l.Add(f, 0)
	}
	now := sim.Time(1)
	for _, f := range fs[:48] {
		l.MarkAccessed(f, now)
	}
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Add", func() { now++; l.Remove(fs[60]); l.Add(fs[60], now) }},
		{"MarkAccessed", func() { now++; l.MarkAccessed(fs[int(now)%len(fs)], now) }},
		{"Remove", func() { l.Remove(fs[61]); l.Add(fs[61], now) }},
		{"Balance", func() {
			now++
			for _, f := range fs[:48] {
				l.MarkAccessed(f, now)
			}
			l.Balance(2, now)
		}},
	} {
		if allocs := testing.AllocsPerRun(100, tc.op); allocs != 0 {
			t.Errorf("%s: %v allocs/op on a warm list, want 0", tc.name, allocs)
		}
	}
}
