package kobj

import (
	"testing"
	"unsafe"

	"kloc/internal/memsim"
)

// TestObjectSize: an object holding its allocator still fits the
// runtime's 64-byte size class.
func TestObjectSize(t *testing.T) {
	if n := unsafe.Sizeof(Object{}); n > 64 {
		t.Fatalf("Object is %d bytes, want at most 64", n)
	}
}

func TestTableOneTaxonomy(t *testing.T) {
	types := Types()
	if len(types) != 12 {
		t.Fatalf("expected 12 object types (Table 1 + radix nodes), got %d", len(types))
	}
	seen := map[string]bool{}
	for _, typ := range types {
		info := typ.Info()
		if info.Name == "" {
			t.Fatalf("type %d has no name", typ)
		}
		if seen[info.Name] {
			t.Fatalf("duplicate type name %q", info.Name)
		}
		seen[info.Name] = true
		if info.Size <= 0 || info.Size > memsim.PageSize {
			t.Fatalf("%s: implausible size %d", info.Name, info.Size)
		}
	}
	// Table 1 domain spot-checks.
	if Inode.Info().Dom != DomainBoth {
		t.Fatal("inode must be fs/network (everything is a file)")
	}
	if Sock.Info().Dom != DomainNet || Journal.Info().Dom != DomainFS {
		t.Fatal("domain misassignment")
	}
	if DomainBoth.String() != "fs/network" || DomainNet.String() != "network" || DomainFS.String() != "fs" {
		t.Fatal("domain names wrong")
	}
}

func TestAllocClassMatchesPaper(t *testing.T) {
	// §3.3: short-lived small objects are slab-allocated; page cache
	// pages and packet data buffers come from the page allocator.
	slab := []Type{Inode, Block, Dentry, Extent, SkBuff, Journal, BlkMQ, Sock, RadixNode}
	page := []Type{PageCache, SkBuffData, RxBuf}
	for _, typ := range slab {
		if typ.Info().Alloc != AllocSlab {
			t.Errorf("%s should be slab-allocated", typ)
		}
	}
	for _, typ := range page {
		if typ.Info().Alloc != AllocPage {
			t.Errorf("%s should be page-allocated", typ)
		}
	}
}

func TestGroups(t *testing.T) {
	groups := Groups()
	if len(groups) != 5 {
		t.Fatalf("expected 5 sensitivity groups, got %d", len(groups))
	}
	// The paper's cumulative order: page caches, journals, slab objects,
	// socket buffers, block I/O (§7.3).
	want := []string{"page-cache", "journal", "slab", "socket-buffers", "block-io"}
	for i, g := range groups {
		if g.String() != want[i] {
			t.Fatalf("group %d = %s, want %s", i, g, want[i])
		}
	}
	// Every type belongs to exactly one group.
	for _, typ := range Types() {
		g := GroupOf(typ)
		if int(g) >= len(groups) {
			t.Fatalf("%s has invalid group", typ)
		}
	}
	if GroupOf(PageCache) != GroupPageCache || GroupOf(Sock) != GroupSockBuf ||
		GroupOf(Block) != GroupBlockIO || GroupOf(Journal) != GroupJournal ||
		GroupOf(Dentry) != GroupSlab {
		t.Fatal("group assignment wrong")
	}
}

// countFreer records the frames returned to it.
type countFreer []*memsim.Frame

func (c *countFreer) Free(f *memsim.Frame) { *c = append(*c, f) }

func TestObjectLifecycle(t *testing.T) {
	frame := &memsim.Frame{ID: 1}
	var freed countFreer
	o := NewObject(7, Dentry, frame, 100, &freed)
	if o.Size != Dentry.Info().Size || o.Born != 100 {
		t.Fatalf("object misconstructed: %+v", o)
	}
	if !o.Relocatable() {
		t.Fatal("unpinned frame should be relocatable")
	}
	frame.Pinned = true
	if o.Relocatable() {
		t.Fatal("pinned frame reported relocatable")
	}
	o.Release()
	o.Release() // idempotent
	if len(freed) != 1 || freed[0] != frame {
		t.Fatalf("release freed %v, want frame 1 once", freed)
	}
}

func TestObjectNilReleaseAndFrame(t *testing.T) {
	o := NewObject(1, Inode, nil, 0, nil)
	o.Release() // must not panic
	if o.Relocatable() {
		t.Fatal("frameless object reported relocatable")
	}
}
