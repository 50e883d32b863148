package kernel

import (
	"testing"

	"kloc/internal/alloc"
	"kloc/internal/memsim"
)

func TestSanitizeReportNilWithoutSanitizer(t *testing.T) {
	k, _, eng := newTestKernel(0)
	if r := k.SanitizeReport(eng.Now()); r != nil {
		t.Fatalf("report without sanitizer = %+v, want nil", r)
	}
}

func TestSanitizerCatchesAppPageBugs(t *testing.T) {
	k, _, _ := newTestKernel(0)
	k.AttachSanitizer(alloc.NewSanitizer())
	ctx := k.NewCtx(0)
	frames, err := k.AppAlloc(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Use-after-free: keep touching a page after returning it.
	k.AppFree(ctx, frames[:1])
	k.AppAccess(ctx, frames[0], 0, false)
	// Leak: drop the kernel's reference without freeing (the seeded
	// bug — a real caller loses the frame slice).
	leaked := frames[1]
	leaked.Mapped = false

	r := k.SanitizeReport(k.Eng.Now())
	if r.Clean() {
		t.Fatal("seeded app-page bugs not reported")
	}
	if r.TotalFindings != 1 || r.Findings[0].Kind != alloc.SanUseAfterFree {
		t.Fatalf("findings = %+v, want one use-after-free", r.Findings)
	}
	if r.Findings[0].ID != appIDBit|uint64(frames[0].ID) {
		t.Fatalf("finding ID = %d, want app-page keyspace", r.Findings[0].ID)
	}
	if r.TotalLeaks != 1 {
		t.Fatalf("TotalLeaks = %d, want 1:\n%s", r.TotalLeaks, r)
	}
	leak := r.Leaks[0]
	if leak.ID != appIDBit|uint64(leaked.ID) || leak.Class != "app" {
		t.Fatalf("leak = %+v, want app page %d", leak, leaked.ID)
	}
	if leak.Size != int64(leaked.Pages())*memsim.PageSize {
		t.Fatalf("leak size = %d", leak.Size)
	}
	// The still-mapped page is reachable, not leaked.
	if r.TrackedLive != 2 {
		t.Fatalf("TrackedLive = %d, want 2", r.TrackedLive)
	}
}

func TestSanitizerCleanKernelLifecycle(t *testing.T) {
	k, _, _ := newTestKernel(0)
	k.AttachSanitizer(alloc.NewSanitizer())
	ctx := k.NewCtx(0)
	frames, err := k.AppAlloc(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		k.AppAccess(ctx, f, 0, true)
	}
	k.AppFree(ctx, frames[:2])
	file, err := k.FS.Create(ctx, "/sane")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS.Write(ctx, file, 0); err != nil {
		t.Fatal(err)
	}
	k.FS.Close(ctx, file)
	if r := k.SanitizeReport(k.Eng.Now()); !r.Clean() {
		t.Fatalf("clean lifecycle dirty:\n%s", r)
	}
}
