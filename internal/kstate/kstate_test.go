package kstate

import (
	"testing"

	"kloc/internal/kobj"
)

func TestCtxCharge(t *testing.T) {
	c := &Ctx{CPU: 1, Now: 100}
	c.Charge(10)
	c.Charge(5)
	c.Charge(-3) // negative charges ignored
	if c.Cost != 15 {
		t.Fatalf("cost = %v", c.Cost)
	}
}

func TestIDGen(t *testing.T) {
	var g IDGen
	if g.Next() != 1 || g.Next() != 2 || g.Next() != 3 {
		t.Fatal("IDs not sequential from 1")
	}
}

func TestNopHooksDefaults(t *testing.T) {
	h := NopHooks{}
	order := h.PlaceKernel(nil, kobj.Inode, 0)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("default order = %v", order)
	}
	if h.UseKlocAllocator(kobj.Dentry) || h.DriverSockExtract() {
		t.Fatal("NopHooks should default to classic kernel behaviour")
	}
	// Notifications must be safe no-ops.
	h.InodeCreated(nil, 1, false)
	h.InodeOpened(nil, 1)
	h.InodeClosed(nil, 1)
	h.InodeDeleted(nil, 1)
	h.ObjectCreated(nil, 1, nil)
	h.ObjectAssociated(nil, 1, nil)
	h.ObjectFreed(nil, nil)
	h.PageAllocated(nil, nil)
	h.PageAccessed(nil, nil)
	h.PageFreed(nil, nil)
}
