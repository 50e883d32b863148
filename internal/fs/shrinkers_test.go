package fs

import (
	"testing"

	"kloc/internal/kobj"
	"kloc/internal/sim"
)

func TestPageCacheShrinkerCountScan(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/a")
	for i := int64(0); i < 16; i++ {
		f.Write(ctx, file, i)
	}
	f.Fsync(ctx, file) // clean pages: reclaimable
	f.Close(ctx, file)

	sh := f.PageCacheShrinker()
	if sh.Name() != "fs.pagecache" {
		t.Fatalf("name = %s", sh.Name())
	}
	if sh.Count() != f.CachePages() || sh.Count() == 0 {
		t.Fatalf("count = %d, cache = %d", sh.Count(), f.CachePages())
	}
	before := f.CachePages()
	if freed := sh.Scan(ctx, 8); freed != 8 {
		t.Fatalf("scan freed %d, want 8", freed)
	}
	if f.CachePages() != before-8 {
		t.Fatalf("cache pages = %d, want %d", f.CachePages(), before-8)
	}
}

func TestDentryShrinkerFreesDentriesAndIcache(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	// Two closed files: one with cached pages (only its dentry is
	// freeable), one without (fully evictable from the icache).
	withPages, _ := f.Create(ctx, "/with-pages")
	for i := int64(0); i < 4; i++ {
		f.Write(ctx, withPages, i)
	}
	f.Fsync(ctx, withPages)
	f.Close(ctx, withPages)
	bare, _ := f.Create(ctx, "/bare")
	f.Fsync(ctx, bare)
	f.Close(ctx, bare)

	sh := f.DentryShrinker()
	if sh.Name() != "fs.dentry" {
		t.Fatalf("name = %s", sh.Name())
	}
	dentriesBefore := f.Stats.ObjLive[kobj.Dentry]
	inodesBefore := f.Stats.ObjLive[kobj.Inode]
	if sh.Count() < 2 {
		t.Fatalf("count = %d, want at least the two dentries", sh.Count())
	}
	freed := sh.Scan(ctx, 1<<20)
	if freed == 0 {
		t.Fatal("scan freed nothing")
	}
	if got := f.Stats.ObjLive[kobj.Dentry]; got != dentriesBefore-2 {
		t.Fatalf("dentries live = %d, want %d", got, dentriesBefore-2)
	}
	// The page-less inode lost its icache object too; the one with
	// cached pages kept it.
	if got := f.Stats.ObjLive[kobj.Inode]; got != inodesBefore-1 {
		t.Fatalf("inodes live = %d, want %d", got, inodesBefore-1)
	}

	// Both files reopen fine — eviction dropped caches, not data.
	for _, path := range []string{"/with-pages", "/bare"} {
		g, err := f.Open(ctx, path)
		if err != nil {
			t.Fatalf("reopen %s after shrink: %v", path, err)
		}
		f.Close(ctx, g)
	}
}

func TestDentryShrinkerSkipsOpenFiles(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/held")
	f.Fsync(ctx, file) // still open

	sh := f.DentryShrinker()
	if sh.Count() != 0 {
		t.Fatalf("count = %d for an open file", sh.Count())
	}
	if freed := sh.Scan(ctx, 100); freed != 0 {
		t.Fatalf("scan freed %d objects of an open file", freed)
	}
}

func TestOOMVictimFramesPicksColdestLargest(t *testing.T) {
	f, mem := newFS(t, nil)
	// Old, big, closed file: the obvious victim.
	ctx := ctxAt(0)
	cold, _ := f.Create(ctx, "/cold")
	for i := int64(0); i < 8; i++ {
		f.Write(ctx, cold, i)
	}
	f.Fsync(ctx, cold)
	f.Close(ctx, cold)
	// Recently-touched small file.
	later := ctxAt(sim.Time(0).Add(10 * sim.Millisecond))
	hot, _ := f.Create(later, "/hot")
	f.Write(later, hot, 0)
	f.Fsync(later, hot)
	f.Close(later, hot)

	var firstPage *kobj.Object
	f.inodes[cold.Inode.Ino].pages.Ascend(func(_ int64, o *kobj.Object) bool { firstPage = o; return false })
	if firstPage == nil {
		t.Fatal("cold file has no cached pages")
	}
	node := firstPage.Frame.Node
	frames := f.OOMVictimFrames(node, sim.Time(0).Add(20*sim.Millisecond))
	if len(frames) == 0 {
		t.Fatal("no victim nominated")
	}
	for _, fr := range frames {
		if fr.Node != node {
			t.Fatalf("victim frame on node %d, want %d", fr.Node, node)
		}
	}
	// All frames belong to the cold file: count matches its pages on
	// that node.
	want := 0
	f.inodes[cold.Inode.Ino].pages.Ascend(func(_ int64, p *kobj.Object) bool {
		if p.Frame.Node == node {
			want++
		}
		return true
	})
	if len(frames) != want {
		t.Fatalf("victim frames = %d, want the cold file's %d", len(frames), want)
	}
	_ = mem
}

func TestOOMVictimFramesEmptyFS(t *testing.T) {
	f, _ := newFS(t, nil)
	if frames := f.OOMVictimFrames(0, 0); frames != nil {
		t.Fatalf("victim on an empty FS: %v", frames)
	}
}
