package lru

import (
	"testing"

	"kloc/internal/memsim"
	"kloc/internal/sim"
)

func frames(n int) []*memsim.Frame {
	out := make([]*memsim.Frame, n)
	for i := range out {
		out[i] = &memsim.Frame{ID: memsim.FrameID(i + 1)}
	}
	return out
}

func TestAddRemoveContains(t *testing.T) {
	l := New()
	fs := frames(3)
	for _, f := range fs {
		l.Add(f, 0)
	}
	a, i := l.active.Len(), l.inactive.Len()
	if a != 0 || i != 3 {
		t.Fatalf("len = %d/%d", a, i)
	}
	if !l.Contains(fs[0]) {
		t.Fatal("missing member")
	}
	l.Add(fs[0], 5) // duplicate add is a no-op
	if l.inactive.Len() != 3 {
		t.Fatal("duplicate add changed length")
	}
	l.Remove(fs[1])
	if l.Contains(fs[1]) {
		t.Fatal("removed frame still present")
	}
	l.Remove(fs[1]) // double remove is a no-op
}

func TestMarkAccessedActivates(t *testing.T) {
	l := New()
	f := frames(1)[0]
	l.Add(f, 0)
	l.MarkAccessed(f, 10)
	a, i := l.active.Len(), l.inactive.Len()
	if a != 1 || i != 0 {
		t.Fatalf("after activation: %d/%d", a, i)
	}
	l.MarkAccessed(f, 20) // already active: just refreshes
	if l.active.Len() != 1 {
		t.Fatal("double activation duplicated entry")
	}
	l.MarkAccessed(&memsim.Frame{ID: 99}, 5) // unknown frame: no-op
}

func TestScanInactiveColdDetection(t *testing.T) {
	l := New()
	fs := frames(4)
	for _, f := range fs {
		l.Add(f, 0)
	}
	// Touch two frames after their Add-time snapshot.
	fs[0].LastAccess = 50
	fs[2].LastAccess = 60
	cold, cost := l.ScanInactive(4, 100)
	if cost != 4*ScanCostPerPage {
		t.Fatalf("cost = %v", cost)
	}
	if len(cold) != 2 {
		t.Fatalf("cold = %d frames", len(cold))
	}
	for _, f := range cold {
		if f.ID == fs[0].ID || f.ID == fs[2].ID {
			t.Fatal("referenced frame reported cold")
		}
	}
	// Referenced frames moved to active.
	a, i := l.active.Len(), l.inactive.Len()
	if a != 2 || i != 2 {
		t.Fatalf("after scan: %d/%d", a, i)
	}
}

func TestScanInactiveSecondRoundStillCold(t *testing.T) {
	l := New()
	f := frames(1)[0]
	l.Add(f, 0)
	cold, _ := l.ScanInactive(1, 10)
	if len(cold) != 1 {
		t.Fatal("untouched frame not cold")
	}
	// Untouched again: still cold on the next scan.
	cold, _ = l.ScanInactive(1, 20)
	if len(cold) != 1 {
		t.Fatal("frame stopped being cold without a reference")
	}
	// Touch it: next scan rescues it.
	f.LastAccess = 30
	cold, _ = l.ScanInactive(1, 40)
	if len(cold) != 0 {
		t.Fatal("referenced frame evicted")
	}
}

func TestScanEmptyList(t *testing.T) {
	l := New()
	cold, cost := l.ScanInactive(10, 0)
	if len(cold) != 0 || cost != 0 {
		t.Fatal("scan of empty list did work")
	}
}

func TestBalanceDeactivates(t *testing.T) {
	l := New()
	fs := frames(10)
	for _, f := range fs {
		l.Add(f, 0)
		l.MarkAccessed(f, 1) // all active
	}
	cost := l.Balance(2, 100)
	if cost == 0 {
		t.Fatal("balance did no work")
	}
	a, i := l.active.Len(), l.inactive.Len()
	if a+i != 10 {
		t.Fatalf("frames lost: %d/%d", a, i)
	}
	if float64(a) > 2*float64(i+1) {
		t.Fatalf("still unbalanced: %d/%d", a, i)
	}
}

func TestBalanceRespectsRecentReference(t *testing.T) {
	l := New()
	fs := frames(6)
	for _, f := range fs {
		l.Add(f, 0)
		l.MarkAccessed(f, 1)
	}
	// Touch every frame after activation; balance should rotate, not
	// deactivate, hot pages — but must still terminate.
	for _, f := range fs {
		f.LastAccess = 50
	}
	l.Balance(1, 100)
	a, i := l.active.Len(), l.inactive.Len()
	if a+i != 6 {
		t.Fatalf("frames lost: %d/%d", a, i)
	}
}

func TestBalanceZeroRatioDefaults(t *testing.T) {
	l := New()
	for _, f := range frames(4) {
		l.Add(f, 0)
		l.MarkAccessed(f, 1)
	}
	l.Balance(0, 10) // should not loop forever or panic
}

func TestScanCostMatchesPaper(t *testing.T) {
	// 1 M pages must cost ~2 s of virtual time (§3.3).
	total := sim.Duration(1_000_000) * ScanCostPerPage
	if total != 2*sim.Second {
		t.Fatalf("1M-page scan costs %v, want 2s", total)
	}
}

func TestHottestActive(t *testing.T) {
	l := New()
	fs := frames(5)
	for i, f := range fs {
		l.Add(f, 0)
		f.LastAccess = sim.Time(10 * (i + 1))
		l.MarkAccessed(f, f.LastAccess)
	}
	// Active front = most recently activated = fs[4] (LastAccess 50).
	hot, cost := l.HottestActive(10, 30)
	if cost == 0 {
		t.Fatal("hottest scan was free")
	}
	if len(hot) != 3 { // LastAccess 50, 40, 30
		t.Fatalf("hot = %d frames", len(hot))
	}
	for _, f := range hot {
		if f.LastAccess < 30 {
			t.Fatalf("cold frame %v in hot set", f.LastAccess)
		}
	}
	// Limit respected.
	hot, _ = l.HottestActive(1, 0)
	if len(hot) != 1 {
		t.Fatalf("limit ignored: %d", len(hot))
	}
}
