package workload

import (
	"testing"

	"kloc/internal/kernel"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/policy"
	"kloc/internal/sim"
)

func testKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	eng := sim.NewEngine()
	// Roomy platform so Setup always fits.
	mem := memsim.NewTwoTier(memsim.DefaultTwoTier(64))
	pol, err := policy.ByName("naive")
	if err != nil {
		t.Fatal(err)
	}
	return kernel.New(eng, mem, pol)
}

// drive runs n steps across the workload's threads.
func drive(t *testing.T, k *kernel.Kernel, w Workload, r *sim.RNG, n int) {
	t.Helper()
	var now sim.Time
	for i := 0; i < n; i++ {
		ctx := &kstate.Ctx{CPU: i % 4, Now: now}
		if err := w.Step(k, ctx, i%w.Threads(), r); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		now = now.Add(ctx.Cost)
	}
}

func TestCatalogNamesMatch(t *testing.T) {
	cfg := Config{ScaleDiv: 64}
	names := Names()
	cat := Catalog(cfg)
	if len(cat) != len(names) {
		t.Fatalf("catalog %d vs names %d", len(cat), len(names))
	}
	for i, w := range cat {
		if w.Name() != names[i] {
			t.Fatalf("catalog[%d] = %s, want %s", i, w.Name(), names[i])
		}
		if w.Threads() != 16 {
			t.Fatalf("%s: Table 3 runs 16 threads, got %d", w.Name(), w.Threads())
		}
	}
	if _, err := ByName("nope", cfg); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestConfigDefaultsAndScaling(t *testing.T) {
	c := Config{}.withDefaults()
	if c.ScaleDiv != 64 || c.Threads != 16 {
		t.Fatalf("defaults: %+v", c)
	}
	large := Config{ScaleDiv: 64}
	small := Config{ScaleDiv: 64, Small: true}
	if small.pages(4000) >= large.pages(4000) {
		t.Fatal("small inputs should shrink footprints")
	}
	if large.pages(0.001) < 8 {
		t.Fatal("pages() must clamp to a usable minimum")
	}
	if small.dataScale(2) < 1 {
		t.Fatal("dataScale must clamp to 1")
	}
}

func TestRocksDBEndToEnd(t *testing.T) {
	k := testKernel(t)
	w := NewRocksDB(Config{ScaleDiv: 64})
	r := sim.NewRNG(1)
	if err := w.Setup(k, r); err != nil {
		t.Fatal(err)
	}
	if len(w.sstables) != w.datasetTables {
		t.Fatalf("dataset tables = %d, want %d", len(w.sstables), w.datasetTables)
	}
	if k.FS.Stats.Creates == 0 {
		t.Fatal("setup created no files")
	}
	drive(t, k, w, r, 3000)
	st := k.FS.Stats
	if st.ObjAllocs[kobj.Journal] == 0 || st.ObjAllocs[kobj.PageCache] == 0 {
		t.Fatal("no journal/page-cache traffic")
	}
	if st.Syncs == 0 {
		t.Fatal("WAL group commit never fsynced")
	}
	if len(w.fdCache) == 0 {
		t.Fatal("table-reader cache unused")
	}
	if len(w.fdCache) > w.fdCacheCap {
		t.Fatalf("fd cache overflow: %d", len(w.fdCache))
	}
}

func TestRocksDBCompactionChurns(t *testing.T) {
	k := testKernel(t)
	cfg := Config{ScaleDiv: 64}
	w := NewRocksDB(cfg)
	w.flushEvery = 16 // force frequent flushes
	r := sim.NewRNG(1)
	if err := w.Setup(k, r); err != nil {
		t.Fatal(err)
	}
	before := k.FS.Stats.Unlinks
	drive(t, k, w, r, 2000)
	if k.FS.Stats.Unlinks == before {
		t.Fatal("no compaction/WAL churn (unlinks)")
	}
	if len(w.sstables) > w.compactAt+4 {
		t.Fatalf("compaction not bounding the table count: %d", len(w.sstables))
	}
}

func TestRedisEndToEnd(t *testing.T) {
	k := testKernel(t)
	w := NewRedis(Config{ScaleDiv: 64})
	w.ckptEvery = 30 // force checkpoints in a short run
	r := sim.NewRNG(2)
	if err := w.Setup(k, r); err != nil {
		t.Fatal(err)
	}
	if open := k.Net.Stats.SocketsCreated - k.Net.Stats.SocketsClosed; open != 16 {
		t.Fatalf("sockets = %d", open)
	}
	drive(t, k, w, r, 2000)
	if k.Net.Stats.PacketsRx == 0 || k.Net.Stats.PacketsTx == 0 {
		t.Fatal("no network traffic")
	}
	if k.FS.Stats.Creates < 2 {
		t.Fatal("no checkpoint files created")
	}
	if k.FS.Stats.Unlinks == 0 {
		t.Fatal("old checkpoint generations not unlinked")
	}
}

func TestFilebenchEndToEnd(t *testing.T) {
	k := testKernel(t)
	w := NewFilebench(Config{ScaleDiv: 64})
	r := sim.NewRNG(3)
	if err := w.Setup(k, r); err != nil {
		t.Fatal(err)
	}
	if k.FS.Inodes() != 16*filesPerThread {
		t.Fatalf("fileset = %d inodes", k.FS.Inodes())
	}
	drive(t, k, w, r, 3000)
	st := k.FS.Stats
	if st.Reads == 0 || st.Writes == 0 {
		t.Fatal("no read/write mix")
	}
	if st.CacheHits == 0 {
		t.Fatal("prefilled reads should hit the page cache")
	}
}

func TestFilebenchRotation(t *testing.T) {
	k := testKernel(t)
	w := NewFilebench(Config{ScaleDiv: 64})
	r := sim.NewRNG(3)
	if err := w.Setup(k, r); err != nil {
		t.Fatal(err)
	}
	closesBefore := k.FS.Stats.Closes
	// Drive one thread past a rotation boundary.
	var now sim.Time
	for i := 0; i < rotateEvery+10; i++ {
		ctx := &kstate.Ctx{CPU: 0, Now: now}
		if err := w.Step(k, ctx, 0, r); err != nil {
			t.Fatal(err)
		}
		now = now.Add(ctx.Cost)
	}
	if k.FS.Stats.Closes == closesBefore {
		t.Fatal("no file rotation happened")
	}
	if w.active[0] == 0 {
		t.Fatal("active file did not advance")
	}
}

func TestCassandraEndToEnd(t *testing.T) {
	k := testKernel(t)
	w := NewCassandra(Config{ScaleDiv: 64})
	r := sim.NewRNG(4)
	if err := w.Setup(k, r); err != nil {
		t.Fatal(err)
	}
	drive(t, k, w, r, 2000)
	if k.Net.Stats.PacketsRx == 0 {
		t.Fatal("no YCSB network traffic")
	}
	if k.FS.Stats.Writes == 0 {
		t.Fatal("no commitlog writes")
	}
	// The app cache absorbs most reads: app refs should dominate
	// relative to a pure FS workload.
	if k.Mem.Stats.Refs[memsim.ClassApp] == 0 {
		t.Fatal("no app-level work (Java overhead model)")
	}
}

func TestSparkPhases(t *testing.T) {
	k := testKernel(t)
	w := NewSpark(Config{ScaleDiv: 64})
	r := sim.NewRNG(5)
	if err := w.Setup(k, r); err != nil {
		t.Fatal(err)
	}
	// Generate phase: every step writes a whole block file.
	per := w.blocksPerThread()
	var now sim.Time
	for b := 0; b < per; b++ {
		ctx := &kstate.Ctx{CPU: 0, Now: now}
		if err := w.Step(k, ctx, 0, r); err != nil {
			t.Fatal(err)
		}
		now = now.Add(ctx.Cost)
	}
	if w.genBlock[0] != per {
		t.Fatalf("generate phase incomplete: %d/%d", w.genBlock[0], per)
	}
	// Sort phase: reads stream the blocks back.
	readsBefore := k.FS.Stats.Reads
	for i := 0; i < 100; i++ {
		ctx := &kstate.Ctx{CPU: 0, Now: now}
		if err := w.Step(k, ctx, 0, r); err != nil {
			t.Fatal(err)
		}
		now = now.Add(ctx.Cost)
	}
	if k.FS.Stats.Reads == readsBefore {
		t.Fatal("sort phase issued no reads")
	}
	// The generate phase populated the page cache; the sort streams it.
	if k.FS.Stats.CacheHits == 0 {
		t.Fatal("sort reads should hit the warm page cache")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64) {
		k := testKernel(t)
		w := NewRocksDB(Config{ScaleDiv: 64})
		r := sim.NewRNG(7)
		if err := w.Setup(k, r); err != nil {
			t.Fatal(err)
		}
		drive(t, k, w, r, 1000)
		return k.FS.Stats.Writes, k.FS.Stats.ObjAllocs[kobj.Journal]
	}
	w1, j1 := run()
	w2, j2 := run()
	if w1 != w2 || j1 != j2 {
		t.Fatalf("replay diverged: writes %d/%d journal %d/%d", w1, w2, j1, j2)
	}
}
