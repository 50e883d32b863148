package fs

import (
	"fmt"
	"testing"

	"kloc/internal/kobj"
	"kloc/internal/sim"
)

// refInode is the test's independent model of one committed inode. The
// reference commit semantics are re-implemented here (not shared with
// applyDurable) so bookkeeping drift in the journal layer is caught.
type refInode struct {
	path    string
	size    int64
	extents map[int64]bool
}

// refOp mirrors one journal record the test believes the FS logged.
type refOp struct {
	kind journalOpKind
	ino  uint64
	path string
	idx  int64
}

func refApply(model map[uint64]*refInode, op refOp) {
	switch op.kind {
	case opCreate:
		model[op.ino] = &refInode{path: op.path, extents: make(map[int64]bool)}
	case opUnlink:
		delete(model, op.ino)
	case opRename:
		if d := model[op.ino]; d != nil {
			d.path = op.path
		}
	case opTruncate:
		if d := model[op.ino]; d != nil {
			d.size = op.idx
			firstDropped := (op.idx + extentSpan - 1) / extentSpan
			for base := range d.extents {
				if base >= firstDropped {
					delete(d.extents, base)
				}
			}
		}
	case opBlock:
		if d := model[op.ino]; d != nil {
			d.extents[op.idx/extentSpan] = true
			if op.idx+1 > d.size {
				d.size = op.idx + 1
			}
		}
	}
}

// TestCrashReplayMetadataConsistent is the crash-recovery property test:
// a randomized operation sequence with tiny journal transactions,
// crashed at an arbitrary point, must replay to exactly the committed
// metadata — no more, no less — and must leak no kernel objects.
func TestCrashReplayMetadataConsistent(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			f, _ := newFS(t, nil)
			f.JournalMaxPending = 4 // force frequent partial commits
			rng := sim.NewRNG(seed)
			now := sim.Time(0)

			var log []refOp
			open := make(map[string]*File)  // one handle per path
			live := make(map[string]uint64) // mirror of path -> ino

			paths := make([]string, 8)
			for i := range paths {
				paths[i] = fmt.Sprintf("/f%d", i)
			}
			pick := func() string { return paths[rng.Intn(len(paths))] }

			// unlinkRecords mirrors Unlink's journal effect on a path.
			unlinkRecords := func(path string) {
				if ino, ok := live[path]; ok {
					log = append(log, refOp{kind: opUnlink, ino: ino})
					delete(live, path)
				}
			}

			ops := 60 + rng.Intn(240) // crash point varies per seed
			for i := 0; i < ops; i++ {
				ctx := ctxAt(now)
				switch r := rng.Intn(100); {
				case r < 30: // create (or open-existing)
					p := pick()
					wasNew := live[p] == 0
					file, err := f.Create(ctx, p)
					if err != nil {
						t.Fatalf("create %s: %v", p, err)
					}
					if wasNew {
						live[p] = file.Inode.Ino
						log = append(log, refOp{kind: opCreate, ino: file.Inode.Ino, path: p})
					}
					if prev, ok := open[p]; ok {
						f.Close(ctx, prev)
					}
					open[p] = file
				case r < 65: // write a page
					p := pick()
					file, ok := open[p]
					if !ok {
						continue
					}
					idx := int64(rng.Intn(16))
					cached := file.Inode.pages.get(uint64(idx)) != nil
					if err := f.Write(ctx, file, idx); err != nil {
						t.Fatalf("write %s@%d: %v", p, idx, err)
					}
					if !cached {
						log = append(log, refOp{kind: opBlock, ino: file.Inode.Ino, idx: idx})
					}
				case r < 75: // truncate
					p := pick()
					file, ok := open[p]
					if !ok {
						continue
					}
					size := int64(rng.Intn(12))
					if err := f.Truncate(ctx, file, size); err != nil {
						t.Fatalf("truncate %s: %v", p, err)
					}
					log = append(log, refOp{kind: opTruncate, ino: file.Inode.Ino, idx: size})
				case r < 85: // rename (replace semantics)
					oldP, newP := pick(), pick()
					if oldP == newP || live[oldP] == 0 {
						continue
					}
					ino := live[oldP]
					unlinkRecords(newP) // Rename unlinks an existing target first
					if err := f.Rename(ctx, oldP, newP); err != nil {
						t.Fatalf("rename %s -> %s: %v", oldP, newP, err)
					}
					delete(live, oldP)
					live[newP] = ino
					log = append(log, refOp{kind: opRename, ino: ino, path: newP})
					if file, ok := open[newP]; ok {
						f.Close(ctx, file)
						delete(open, newP)
					}
					if file, ok := open[oldP]; ok {
						open[newP] = file
						delete(open, oldP)
					}
				case r < 93: // unlink
					p := pick()
					if live[p] == 0 {
						continue
					}
					if file, ok := open[p]; ok {
						f.Close(ctx, file)
						delete(open, p)
					}
					if err := f.Unlink(ctx, p); err != nil {
						t.Fatalf("unlink %s: %v", p, err)
					}
					unlinkRecords(p)
				default: // fsync (commits the journal)
					p := pick()
					if file, ok := open[p]; ok {
						if err := f.Fsync(ctx, file); err != nil {
							t.Fatalf("fsync %s: %v", p, err)
						}
					}
				}
				now = now.Add(sim.Duration(1000) + ctx.Cost)
			}

			// What the test believes is durable: everything the journal
			// committed before the crash, i.e. all records minus pending.
			committed := len(log) - f.JournalPending()
			if committed < 0 {
				t.Fatalf("model logged %d records but %d pending", len(log), f.JournalPending())
			}
			model := make(map[uint64]*refInode)
			for _, op := range log[:committed] {
				refApply(model, op)
			}

			ctx := ctxAt(now)
			f.Crash(ctx)

			// A crash must tear down every in-memory object: nothing may
			// survive except the durable image.
			if f.Inodes() != 0 || f.JournalPending() != 0 {
				t.Fatalf("post-crash: %d inodes, %d pending", f.Inodes(), f.JournalPending())
			}
			for typ, live := range f.Stats.ObjLive {
				if live != 0 {
					t.Fatalf("post-crash: %d leaked %v objects", live, kobj.Type(typ))
				}
			}

			if err := f.Replay(ctx); err != nil {
				t.Fatalf("replay: %v", err)
			}

			// The replayed metadata must exactly match the reference model.
			if f.Inodes() != len(model) || f.DurableInodes() != len(model) {
				t.Fatalf("replayed %d inodes (durable %d), model has %d",
					f.Inodes(), f.DurableInodes(), len(model))
			}
			wantExtents := 0
			for ino, ref := range model {
				ind, ok := f.inodes[ino]
				if !ok {
					t.Fatalf("inode %d missing after replay", ino)
				}
				if ind.Path != ref.path {
					t.Fatalf("inode %d path %q, want %q", ino, ind.Path, ref.path)
				}
				if ind.SizePages != ref.size {
					t.Fatalf("inode %d size %d, want %d", ino, ind.SizePages, ref.size)
				}
				if ind.extents.Len() != len(ref.extents) {
					t.Fatalf("inode %d has %d extents, want %d", ino, ind.extents.Len(), len(ref.extents))
				}
				wantExtents += len(ref.extents)
			}
			// Object accounting must match the rebuilt image: one inode +
			// one dentry per file, the durable extents, and zero journal
			// buffers (none may leak across a crash).
			if got := f.Stats.ObjLive[kobj.Inode]; got != int64(len(model)) {
				t.Fatalf("live inode objects %d, want %d", got, len(model))
			}
			if got := f.Stats.ObjLive[kobj.Dentry]; got != int64(len(model)) {
				t.Fatalf("live dentry objects %d, want %d", got, len(model))
			}
			if got := f.Stats.ObjLive[kobj.Extent]; got != int64(wantExtents) {
				t.Fatalf("live extent objects %d, want %d", got, wantExtents)
			}
			if got := f.Stats.ObjLive[kobj.Journal]; got != 0 {
				t.Fatalf("live journal objects %d after replay", got)
			}

			// The remounted filesystem must be usable: every durable path
			// opens and serves I/O.
			for _, ref := range model {
				file, err := f.Open(ctx, ref.path)
				if err != nil {
					t.Fatalf("open %s after replay: %v", ref.path, err)
				}
				if ref.size > 0 {
					if err := f.Read(ctx, file, 0); err != nil {
						t.Fatalf("read %s after replay: %v", ref.path, err)
					}
				}
				if err := f.Write(ctx, file, ref.size); err != nil {
					t.Fatalf("write %s after replay: %v", ref.path, err)
				}
				f.Close(ctx, file)
			}
		})
	}
}
