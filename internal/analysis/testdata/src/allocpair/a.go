// Package fixture carries deliberate allocpair violations for the
// analyzer tests; the go tool never builds testdata trees. It imports
// the real kobj package so NewObject and Release resolve for real.
package fixture

import "kloc/internal/kobj"

// leakyPool allocates but has no give-back path.
type leakyPool struct{ next uint64 }

func (p *leakyPool) AllocBuffer(n int) uint64 { // want "leakyPool declares AllocBuffer but no Free"
	p.next++
	return p.next
}

// pairedPool is well-formed: Alloc has a matching Free.
type pairedPool struct{ next uint64 }

func (p *pairedPool) AllocBuffer(n int) uint64 { p.next++; return p.next }
func (p *pairedPool) FreeBuffer(id uint64)     {}

// externalPool's teardown genuinely lives elsewhere; the marker
// vouches for it.
type externalPool struct{}

//klocs:ignore-allocpair fixture: slots are torn down by the harness
func (p *externalPool) AllocSlot() int { return 0 }

// makeOrphan passes a nil allocator: the object's storage never
// returns to it.
func makeOrphan(id kobj.ID, born uint64) *kobj.Object {
	return kobj.NewObject(id, kobj.Inode, nil, 0, nil) // want "nil allocator"
}

// teardown and hooks give the package its free path, so the
// package-level Release/ObjectFreed diagnostics stay quiet and the
// test isolates the nil-allocator one.
func teardown(o *kobj.Object) { o.Release() }

type hooks struct{}

func (hooks) ObjectFreed(o *kobj.Object) {}

var mux hooks

func fireFreed(o *kobj.Object) { mux.ObjectFreed(o) }
