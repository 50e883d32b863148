package fs

import (
	"sort"

	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/trace"
)

// DefaultJournalMaxPending bounds the in-memory journal before a forced
// commit, like jbd2's transaction size limit. FS.JournalMaxPending
// overrides it (crash-recovery tests force tiny transactions).
const DefaultJournalMaxPending = 128

// journal state lives on FS to keep the struct count down; these
// methods are the jbd2-like layer.
//
// The journal is typed: every record describes one metadata update
// (create, unlink, rename, truncate, block mapping). On commit the
// records are applied to the FS's durable state — the metadata image
// that survives a crash. Crash drops everything not committed; Replay
// rebuilds the in-memory metadata from the durable image.

type journalOpKind uint8

const (
	opCreate journalOpKind = iota
	opUnlink
	opRename
	opTruncate
	opBlock
)

// journalOp is one logged metadata update plus its in-memory Journal
// buffer object (whose death at commit is most of the short slab
// lifetime population in Fig 2d).
type journalOp struct {
	kind journalOpKind
	ino  uint64
	// path is the durable path for opCreate/opRename.
	path string
	// idx is the page index for opBlock and the new size for opTruncate.
	idx int64
	obj *kobj.Object
}

// durableInode is the committed (crash-surviving) metadata of one
// inode.
type durableInode struct {
	path      string
	nlink     int
	sizePages int64
	// extents marks the extent bases with durable block mappings.
	extents map[int64]bool
}

func (f *FS) journalLimit() int {
	if f.JournalMaxPending > 0 {
		return f.JournalMaxPending
	}
	return DefaultJournalMaxPending
}

// journalRecord logs one metadata update: a Journal buffer object is
// allocated, written, and queued for the next commit. The buffer
// allocation runs in atomic context — losing a journal record to a
// transient pressure spike would corrupt metadata ordering, so it may
// draw on the watermark emergency reserve (GFP_NOFAIL in spirit).
func (f *FS) journalRecord(ctx *kstate.Ctx, op journalOp) error {
	exitAtomic := f.Mem.EnterAtomic()
	o, err := f.Objs.Alloc(ctx, kobj.Journal, op.ino)
	exitAtomic()
	if err != nil {
		return err
	}
	op.obj = o
	f.Objs.Touch(ctx, o, journalRecordBytes, true)
	f.journalPending = append(f.journalPending, op)
	if len(f.journalPending) >= f.journalLimit() {
		return f.journalCommit(ctx)
	}
	return nil
}

// journalCommit writes the pending journal buffers sequentially to the
// device, applies the records to the durable metadata image, and
// releases the buffers. If the device fails the commit write (EIO after
// the block layer's retries), the transaction stays pending — nothing
// is durable, nothing is freed — and a later commit retries it.
func (f *FS) journalCommit(ctx *kstate.Ctx) error {
	if len(f.journalPending) == 0 {
		return nil
	}
	bytes := 0
	for _, op := range f.journalPending {
		f.Objs.Touch(ctx, op.obj, journalRecordBytes, false)
		bytes += journalRecordBytes
	}
	lat, err := f.MQ.Submit(ctx.CPU, ctx.Now, bytes, true, true)
	ctx.Charge(lat)
	if err != nil {
		f.Stats.JournalCommitFails++
		return err
	}
	f.Trace.Emit(trace.JournalCommit, ctx.Now, 0, uint64(len(f.journalPending)),
		"commit", -1, int64(bytes))
	for _, op := range f.journalPending {
		f.applyDurable(op)
		f.Objs.Free(op.obj, ctx)
	}
	f.journalPending = f.journalPending[:0]
	f.Stats.JournalCommits++
	return nil
}

// applyDurable folds one committed record into the durable image.
// Records are applied in log order, so a create always precedes the
// operations on its inode.
func (f *FS) applyDurable(op journalOp) {
	switch op.kind {
	case opCreate:
		f.durable[op.ino] = &durableInode{
			path: op.path, nlink: 1, extents: make(map[int64]bool),
		}
	case opUnlink:
		if d := f.durable[op.ino]; d != nil {
			d.nlink--
			if d.nlink <= 0 {
				delete(f.durable, op.ino)
			}
		}
	case opRename:
		if d := f.durable[op.ino]; d != nil {
			d.path = op.path
		}
	case opTruncate:
		if d := f.durable[op.ino]; d != nil {
			d.sizePages = op.idx
			firstDropped := (op.idx + extentSpan - 1) / extentSpan
			for base := range d.extents {
				if base >= firstDropped {
					delete(d.extents, base)
				}
			}
		}
	case opBlock:
		if d := f.durable[op.ino]; d != nil {
			d.extents[op.idx/extentSpan] = true
			if op.idx+1 > d.sizePages {
				d.sizePages = op.idx + 1
			}
		}
	}
}

// JournalPending reports queued journal records (tests).
func (f *FS) JournalPending() int { return len(f.journalPending) }

// DurableInodes reports the number of inodes in the committed image
// (tests).
func (f *FS) DurableInodes() int { return len(f.durable) }

// SyncJournal forces a commit of pending journal buffers (the jbd2
// commit timer; kernel daemons call this periodically).
func (f *FS) SyncJournal(ctx *kstate.Ctx) error { return f.journalCommit(ctx) }

// Crash simulates a kernel crash at the current virtual time: every
// uncommitted journal record is lost and all in-memory filesystem state
// — inodes, dentries, page cache, radix nodes, extents, per-KLOC arenas
// — is torn down through the normal free paths, so the memory model and
// the policy layer stay consistent. Only the durable image (committed
// transactions) survives. Callers follow with Replay to remount.
func (f *FS) Crash(ctx *kstate.Ctx) {
	f.Stats.Crashes++
	// Uncommitted transactions vanish.
	for _, op := range f.journalPending {
		f.Objs.Free(op.obj, ctx)
	}
	f.journalPending = f.journalPending[:0]
	// Tear down every inode. destroyInode mutates inodeOrder, so walk a
	// copy; zeroing Refs/Nlink reflects that open handles died with the
	// kernel.
	order := append([]uint64(nil), f.inodeOrder...)
	for _, ino := range order {
		ind, ok := f.inodes[ino]
		if !ok {
			continue
		}
		ind.Refs, ind.Nlink = 0, 0
		f.destroyInode(ctx, ind)
	}
	f.dcache = make(map[string]uint64)
}

// Replay remounts after a Crash: the journal is read back sequentially
// and the durable image is materialized as fresh in-memory inodes with
// their dentry and extent objects. Data pages are not restored — the
// page cache refills on demand — but the metadata (paths, link counts,
// sizes, extent mappings) exactly matches the committed transactions.
func (f *FS) Replay(ctx *kstate.Ctx) error {
	// One sequential journal scan: inode blocks plus one record per
	// durable extent.
	records := 0
	inos := make([]uint64, 0, len(f.durable))
	for ino, d := range f.durable {
		inos = append(inos, ino)
		records += 1 + len(d.extents)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	if records > 0 {
		lat, err := f.MQ.Submit(ctx.CPU, ctx.Now, records*journalRecordBytes, true, false)
		ctx.Charge(lat)
		if err != nil {
			return err
		}
	}
	for _, ino := range inos {
		if _, err := f.materializeInode(ctx, ino, f.durable[ino]); err != nil {
			return err
		}
		f.Stats.ReplayedInodes++
	}
	return nil
}

// materializeInode rebuilds one inode (and its kernel objects) from its
// durable metadata.
func (f *FS) materializeInode(ctx *kstate.Ctx, ino uint64, d *durableInode) (*Inode, error) {
	ind := newInode(ino, d.path)
	ind.Nlink = d.nlink
	ind.SizePages = d.sizePages
	f.inodes[ino] = ind
	f.inodeOrder = append(f.inodeOrder, ino)
	if d.path != "" {
		f.dcache[d.path] = ino
	}
	f.Hooks.InodeCreated(ctx, ino, false)
	var err error
	if ind.inodeObj, err = f.Objs.Alloc(ctx, kobj.Inode, ino); err != nil {
		return nil, err
	}
	if ind.dentry, err = f.Objs.Alloc(ctx, kobj.Dentry, ino); err != nil {
		return nil, err
	}
	bases := make([]int64, 0, len(d.extents))
	for base := range d.extents {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		o, err := f.Objs.Alloc(ctx, kobj.Extent, ino)
		if err != nil {
			return nil, err
		}
		ind.extents.set(&f.nodes, uint64(base), o)
	}
	return ind, nil
}
