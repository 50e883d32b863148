package harness

import (
	"testing"

	"kloc/internal/fault"
	"kloc/internal/kobj"
	"kloc/internal/trace"
)

// ioAttempts is the attempt count a block dispatch reports when it
// exhausted blockdev's retry budget: the first try and 3 retries.
const ioAttempts = 4

// TestWritebackIOFailuresAreClean drives writeback's Submit-error
// branch under the sanitizer and the crash-replay oracle. A block
// fault rule at 1/2 per device command fails one request in 16 past
// its retry budget, so some writeback runs fail: their pages must stay
// dirty, and their bio and blk-mq request must be freed exactly once.
// No other runtime gate reaches that branch: CI's sanitized run
// injects no faults, and the machine chaos campaign never writes back.
func TestWritebackIOFailuresAreClean(t *testing.T) {
	res, err := Run(quickRun(RunConfig{
		PolicyName: "klocs", Workload: "rocksdb",
		Sanitize: true, CrashReplay: true,
		Fault: &fault.Config{Seed: 42, Rules: map[fault.Point]fault.Rule{fault.BlockIO: {Prob: 0.5}}},
		Trace: &trace.Config{Events: []string{string(trace.AllocSlab), string(trace.BlockDispatch)}, BufferEvents: 1 << 20},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.IOHardFailures == 0 {
		t.Fatal("no block request exhausted its retries")
	}
	if !res.Sanitize.Clean() {
		t.Fatalf("sanitizer dirty:\n%s", res.Sanitize)
	}
	if res.CrashViolation != "" {
		t.Fatalf("crash replay: %s", res.CrashViolation)
	}
	// A writeback run allocates its blk-mq request and then dispatches
	// its write; a dispatch that took every attempt failed for good.
	if res.Trace.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events", res.Trace.Dropped())
	}
	failed, prev := 0, trace.Event{}
	for _, e := range res.Trace.Events() {
		if e.Name == trace.BlockDispatch && e.Class == "write" && e.Obj == ioAttempts &&
			prev.Name == trace.AllocSlab && prev.Class == kobj.BlkMQ.String() {
			failed++
		}
		prev = e
	}
	if failed == 0 {
		t.Fatalf("%d hard I/O failures, none of them a writeback run", res.IOHardFailures)
	}
	t.Logf("%d hard I/O failures, %d in writeback; %d degraded ops", res.IOHardFailures, failed, res.DegradedOps)
}
