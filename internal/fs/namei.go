package fs

import "kloc/internal/kstate"

// Rename moves a file to a new path: the dentry cache is updated, the
// old dentry is invalidated, and the metadata update is journalled.
// Renaming over an existing file unlinks the target first (POSIX).
func (f *FS) Rename(ctx *kstate.Ctx, oldPath, newPath string) error {
	ctx.Charge(syscallEntryCost)
	if oldPath == newPath {
		return nil
	}
	ino, ok := f.dcache[oldPath]
	if !ok {
		var exists bool
		if ino, exists = f.findByPath(oldPath); !exists {
			return errNotFound(oldPath)
		}
	}
	ind := f.inodes[ino]
	// Replace semantics.
	if _, exists := f.dcache[newPath]; exists {
		if err := f.Unlink(ctx, newPath); err != nil {
			return err
		}
	}
	delete(f.dcache, oldPath)
	ind.Path = newPath
	f.dcache[newPath] = ino
	f.Objs.Touch(ctx, ind.dentry, 0, true)
	f.Stats.Renames++
	return f.journalRecord(ctx, journalOp{kind: opRename, ino: ino, path: newPath})
}

// Truncate shrinks (or logically grows) a file to sizePages. Shrinking
// drops page-cache pages and extent mappings beyond the new size and
// journals the metadata change — the path RocksDB-style WAL recycling
// exercises.
func (f *FS) Truncate(ctx *kstate.Ctx, file *File, sizePages int64) error {
	ctx.Charge(syscallEntryCost)
	ind := file.Inode
	if sizePages < 0 {
		sizePages = 0
	}
	if sizePages >= ind.SizePages {
		// Logical extension: just metadata.
		ind.SizePages = sizePages
		f.Objs.Touch(ctx, ind.inodeObj, 0, true)
		return f.journalRecord(ctx, journalOp{kind: opTruncate, ino: ind.Ino, idx: sizePages})
	}
	// Drop the pages beyond the new size, then the extents fully
	// beyond it, each in index order.
	f.freeFrom(ctx, &ind.pages, uint64(sizePages))
	f.freeFrom(ctx, &ind.extents, uint64((sizePages+extentSpan-1)/extentSpan))
	ind.SizePages = sizePages
	f.Objs.Touch(ctx, ind.inodeObj, 0, true)
	f.Stats.Truncates++
	return f.journalRecord(ctx, journalOp{kind: opTruncate, ino: ind.Ino, idx: sizePages})
}
