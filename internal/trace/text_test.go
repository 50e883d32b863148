package trace_test

import (
	"fmt"
	"strings"
	"testing"

	"kloc/internal/harness"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// referenceText is WriteText as it was written with fmt over a copy of
// the ring: the reference the strconv writer must match byte for byte.
func referenceText(t *trace.Tracer) string {
	var b strings.Builder
	events := t.Events()
	fmt.Fprintf(&b, "# kloc trace: events=%d buffered=%d dropped=%d\n"+
		"# schema: seq at(ns) name ctx obj class node size\n",
		t.Emitted(), len(events), t.Dropped())
	for _, e := range events {
		fmt.Fprintf(&b, "%d %d %s ctx=%d obj=%d class=%s node=%d size=%d\n",
			e.Seq, int64(e.At), e.Name, e.Ctx, e.Obj, e.Class, e.Node, e.Size)
	}
	return b.String()
}

// checkText holds a tracer's WriteText and TextString to the reference.
func checkText(t *testing.T, what string, tr *trace.Tracer) {
	t.Helper()
	want := referenceText(tr)
	var b strings.Builder
	if err := tr.WriteText(&b); err != nil {
		t.Fatalf("%s: WriteText: %v", what, err)
	}
	if got := b.String(); got != want {
		t.Fatalf("%s: WriteText differs from the fmt reference:\n got: %.400q\nwant: %.400q", what, got, want)
	}
	if got := tr.TextString(); got != want {
		t.Fatalf("%s: TextString differs from the fmt reference", what)
	}
}

// TestTextMatchesReference: the text writer renders exactly what the
// fmt writer did for an empty, a nil, a partly filled and a wrapped
// ring, for edge values (no node, negative size, empty class, the
// largest IDs and times), and for a real traced run whose ring wraps.
func TestTextMatchesReference(t *testing.T) {
	checkText(t, "nil tracer", nil)
	checkText(t, "empty ring", trace.New(trace.Config{BufferEvents: 8}))

	edge := trace.New(trace.Config{BufferEvents: 16})
	edge.Emit(trace.LBShed, 0, 0, 0, "", -1, -1)
	edge.Emit(trace.AllocSlab, sim.Time(1<<62), ^uint64(0), ^uint64(0), "dentry", 1<<31, -1<<62)
	edge.Emit(trace.NetRx, 7, 3, 9, "a class with spaces", -7, 0)
	checkText(t, "edge values", edge)

	for _, n := range []int{5, 16, 17, 40} {
		tr := trace.New(trace.Config{BufferEvents: 16})
		for i := 0; i < n; i++ {
			tr.Emit(trace.Names()[i%len(trace.Names())], sim.Time(i*1000), uint64(i%3),
				uint64(i), "page", i%2-1, int64(4096*i-100))
		}
		if wrapped := n > 16; wrapped != (tr.Dropped() > 0) {
			t.Fatalf("%d events in a 16-slot ring: dropped %d", n, tr.Dropped())
		}
		checkText(t, fmt.Sprintf("%d events in a 16-slot ring", n), tr)
	}

	res, err := harness.Run(harness.RunConfig{
		PolicyName: "klocs", Workload: "rocksdb", ScaleDiv: 256,
		Duration: 10 * sim.Millisecond,
		Trace:    &trace.Config{BufferEvents: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Dropped() == 0 {
		t.Fatal("the traced run did not wrap its ring")
	}
	checkText(t, "traced rocksdb/klocs run", res.Trace)
}
