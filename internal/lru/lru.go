// Package lru models the kernel's page-reclaim LRU machinery (§3.3,
// §4.5): separate active and inactive lists, a second-chance promotion
// on reference, and a scan cost of 2 µs per page (the paper measures
// 2 seconds to scan one million pages on their Xeon platform).
//
// The tiering policies drive these lists to pick demotion victims; the
// central result of §3.3 is that this machinery is fast enough for
// long-lived application pages but too slow for kernel objects whose
// lifetimes (36 ms slab, 160 ms page cache) are shorter than a scan
// period — which is exactly what the simulation reproduces.
package lru

import (
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// ScanCostPerPage is the virtual cost of inspecting one page during an
// LRU scan (2 s / 1 M pages).
const ScanCostPerPage sim.Duration = 2 * sim.Microsecond

// Lists is one LRU domain (typically one per memory node). Both lists
// are threaded through the frames themselves (memsim.FrameList, the
// page->lru analog), and each frame's Seen stamp holds the LastAccess
// value observed at its previous scan: a frame is "referenced" when
// LastAccess moved past it. Lists must not be copied.
type Lists struct {
	active   memsim.FrameList // front = most recently activated
	inactive memsim.FrameList

	// ScannedPages counts LRU work for cost accounting.
	ScannedPages uint64
}

// New returns empty lists.
func New() *Lists { return &Lists{} }

// Len reports (active, inactive) lengths.
func (l *Lists) Len() (int, int) { return l.active.Len(), l.inactive.Len() }

// Contains reports membership.
func (l *Lists) Contains(f *memsim.Frame) bool {
	return l.active.Has(f) || l.inactive.Has(f)
}

// Add inserts a frame (new pages start on the inactive list, like
// Linux; a subsequent reference activates them).
func (l *Lists) Add(f *memsim.Frame, now sim.Time) {
	if l.Contains(f) {
		return
	}
	f.Seen = now
	l.inactive.PushFront(f)
}

// Remove drops a frame (page freed or migrated out of this domain).
func (l *Lists) Remove(f *memsim.Frame) {
	l.active.Remove(f)
	l.inactive.Remove(f)
}

// activate moves an inactive frame to the front of the active list.
func (l *Lists) activate(f *memsim.Frame) {
	l.inactive.Remove(f)
	l.active.PushFront(f)
}

// MarkAccessed promotes a referenced inactive page to the active list
// (mark_page_accessed).
func (l *Lists) MarkAccessed(f *memsim.Frame, now sim.Time) {
	switch {
	case l.active.Has(f):
		f.Seen = now
		l.active.MoveToFront(f)
	case l.inactive.Has(f):
		f.Seen = now
		l.activate(f)
	}
}

// ScanInactive examines up to n pages from the inactive tail. Pages
// referenced since their last scan rotate to the active list; the rest
// are returned as cold candidates (still listed — the caller removes
// them if it evicts/migrates). The returned cost is the scan tax the
// caller must charge to virtual time.
func (l *Lists) ScanInactive(n int, now sim.Time) (cold []*memsim.Frame, cost sim.Duration) {
	for i := 0; i < n; i++ {
		f := l.inactive.Back()
		if f == nil {
			break
		}
		l.ScannedPages++
		cost += ScanCostPerPage
		referenced := f.LastAccess > f.Seen
		f.Seen = now
		if referenced {
			// Referenced since we last looked: second chance.
			l.activate(f)
			continue
		}
		// Cold: rotate to the front so the scan window advances, and
		// report it.
		l.inactive.MoveToFront(f)
		cold = append(cold, f)
	}
	return cold, cost
}

// Balance deactivates pages from the active tail until the active list
// is at most ratio times the inactive list (Linux keeps the lists
// roughly balanced; unreferenced active pages age out). Returns the
// scan cost.
func (l *Lists) Balance(ratio float64, now sim.Time) sim.Duration {
	if ratio <= 0 {
		ratio = 2
	}
	var cost sim.Duration
	for float64(l.active.Len()) > ratio*float64(l.inactive.Len()+1) {
		f := l.active.Back()
		if f == nil {
			break
		}
		l.ScannedPages++
		cost += ScanCostPerPage
		referenced := f.LastAccess > f.Seen
		f.Seen = now
		if referenced {
			// Recently referenced: rotate to front instead.
			l.active.MoveToFront(f)
			continue
		}
		l.active.Remove(f)
		l.inactive.PushFront(f)
	}
	return cost
}

// OldestInactive returns up to n frames from the inactive tail without
// the referenced-check (used by policies that trust their own signal).
func (l *Lists) OldestInactive(n int) []*memsim.Frame {
	out := make([]*memsim.Frame, 0, n)
	for f := l.inactive.Back(); f != nil && len(out) < n; f = f.Prev() {
		out = append(out, f)
	}
	return out
}

// HottestActive returns up to n frames from the active head whose last
// access is at or after the cutoff — promotion candidates for tiering
// policies. Each inspection costs a scan; the returned cost must be
// charged by the caller.
func (l *Lists) HottestActive(n int, cutoff sim.Time) ([]*memsim.Frame, sim.Duration) {
	out := make([]*memsim.Frame, 0, n)
	var cost sim.Duration
	for f := l.active.Front(); f != nil && len(out) < n; f = f.Next() {
		l.ScannedPages++
		cost += ScanCostPerPage
		if f.LastAccess >= cutoff {
			out = append(out, f)
		} else {
			// The active list is recency-ordered from the front; once
			// entries fall below the cutoff, the rest will too.
			break
		}
	}
	return out, cost
}
