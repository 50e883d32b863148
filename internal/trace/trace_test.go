package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"kloc/internal/sim"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Emit(AllocSlab, 100, 1, 2, "dentry", 0, 192)
	if tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded something")
	}
	s := tr.Stats()
	if s.Emitted != 0 || len(s.ByName) != 0 || len(s.Contexts) != 0 {
		t.Fatalf("nil tracer stats = %+v", s)
	}
}

func TestRingBoundsAndDropCounting(t *testing.T) {
	tr := New(Config{})
	const emitted = bufferEvents + 6
	for i := 0; i < emitted; i++ {
		tr.Emit(NetRx, sim.Time(i*100), 7, uint64(i), "seg", 0, 1500)
	}
	if tr.Emitted() != emitted {
		t.Fatalf("emitted = %d", tr.Emitted())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	events := tr.Events()
	if len(events) != bufferEvents {
		t.Fatalf("buffered = %d, want %d", len(events), bufferEvents)
	}
	// Oldest-first, the last bufferEvents emitted survive.
	for i, e := range events {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("event[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	// Summary counters are drop-independent.
	if s := tr.Stats(); s.ByName[0].Count != emitted || s.Contexts[0].Total != emitted {
		t.Fatalf("stats lost dropped events: %+v", s)
	}
}

// TestCheckEvents: the patterns the docs show pass, and a pattern that
// would enable nothing is rejected instead of tracing nothing.
func TestCheckEvents(t *testing.T) {
	for _, events := range [][]string{
		nil,
		{"alloc.*", "memsim.migrate"},
		{"alloc.*", "memsim.migrate", "oom.spill"},
		{"alloc.slab", "obj.free", "fs.journal.commit"},
		{"pressure.*", "oom.*"},
		{"*"},
	} {
		if err := CheckEvents(events); err != nil {
			t.Errorf("CheckEvents(%q) = %v, want nil", events, err)
		}
	}
	for _, events := range [][]string{
		{"nosuch.event"},
		{"["},
		{"alloc.*", "alloc.slab["},
		{"alloc"},
	} {
		if err := CheckEvents(events); err == nil {
			t.Errorf("CheckEvents(%q) accepted a pattern that enables nothing", events)
		}
	}
}

func TestEnableGlobs(t *testing.T) {
	cases := []struct {
		patterns []string
		name     Name
		want     bool
	}{
		{nil, AllocSlab, true},
		{[]string{"alloc.*"}, AllocSlab, true},
		{[]string{"alloc.*"}, AllocPage, true},
		{[]string{"alloc.*"}, NetRx, false},
		{[]string{"net.rx"}, NetRx, true},
		{[]string{"net.rx"}, NetTx, false},
		{[]string{"pressure.*", "oom.*"}, KswapdWake, true},
		{[]string{"pressure.*", "oom.*"}, OOMSpill, true},
		{[]string{"fs.journal.commit"}, JournalCommit, true},
		{[]string{"*"}, BlockDispatch, true},
		{[]string{"nomatch"}, Migrate, false},
	}
	for _, c := range cases {
		tr := New(Config{Events: c.patterns})
		tr.Emit(c.name, 0, 0, 0, "x", -1, 0)
		if got := tr.Emitted() == 1; got != c.want {
			t.Errorf("Emit(%q) with %v recorded=%v, want %v", c.name, c.patterns, got, c.want)
		}
	}
}

func TestDisabledNamesCostNothing(t *testing.T) {
	tr := New(Config{Events: []string{"net.rx"}})
	tr.Emit(AllocSlab, 1, 1, 1, "dentry", 0, 192)
	tr.Emit(AllocPage, 2, 1, 2, "page_cache", 0, 4096)
	if tr.Emitted() != 0 || len(tr.Events()) != 0 {
		t.Fatal("disabled events were recorded")
	}
}

func TestContextWindowSummary(t *testing.T) {
	tr := New(Config{})
	// at places an event a hundredth of a summary window apart.
	at := func(hundredths int) sim.Time { return sim.Time(hundredths) * sim.Time(summaryWindow) / 100 }
	// Context 5: two events in window 0, one in window 2.
	tr.Emit(AllocSlab, at(10), 5, 1, "inode", 0, 600)
	tr.Emit(AllocSlab, at(90), 5, 2, "dentry", 0, 192)
	tr.Emit(ObjFree, at(250), 5, 1, "inode", 0, 600)
	// Context 9: one event in window 1.
	tr.Emit(NetRx, at(150), 9, 3, "seg", 1, 1500)
	s := tr.Stats()
	if s.Window != summaryWindow {
		t.Fatalf("window = %v", s.Window)
	}
	if len(s.Contexts) != 2 || s.Contexts[0].Ctx != 5 || s.Contexts[0].Total != 3 {
		t.Fatalf("contexts = %+v", s.Contexts)
	}
	if w := s.Contexts[0].Windows; len(w) != 3 || w[0] != 2 || w[1] != 0 || w[2] != 1 {
		t.Fatalf("ctx 5 windows = %v", w)
	}
	if w := s.Contexts[1].Windows; len(w) != 2 || w[1] != 1 {
		t.Fatalf("ctx 9 windows = %v", w)
	}
	// Per-name totals sorted by name.
	if len(s.ByName) != 3 || s.ByName[0].Name != AllocSlab || s.ByName[0].Count != 2 {
		t.Fatalf("byName = %+v", s.ByName)
	}
}

// fill emits a fixed deterministic sequence.
func fill(tr *Tracer) {
	tr.Emit(AllocSlab, 100, 1, 10, "inode", 0, 600)
	tr.Emit(AllocPage, 230, 1, 11, "page_cache", 0, 4096)
	tr.Emit(BlockDispatch, 400, 0, 1, "write", 2, 8192)
	tr.Emit(Migrate, 900, 1, 11, "cache", 1, 1)
	tr.Emit(ObjFree, 1500, 1, 10, "inode", 0, 600)
}

func TestExportsAreDeterministic(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	fill(a)
	fill(b)
	if a.TextString() != b.TextString() {
		t.Fatal("text export differs between identical tracers")
	}
	var ja, jb strings.Builder
	if err := a.WriteChrome(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChrome(&jb); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Fatal("chrome export differs between identical tracers")
	}
}

func TestTextFormat(t *testing.T) {
	tr := New(Config{})
	fill(tr)
	text := tr.TextString()
	if !strings.HasPrefix(text, "# kloc trace: events=5 buffered=5 dropped=0\n") {
		t.Fatalf("bad header:\n%s", text)
	}
	if !strings.Contains(text, "0 100 alloc.slab ctx=1 obj=10 class=inode node=0 size=600\n") {
		t.Fatalf("missing alloc.slab line:\n%s", text)
	}
	if !strings.Contains(text, "3 900 memsim.migrate ctx=1 obj=11 class=cache node=1 size=1\n") {
		t.Fatalf("missing migrate line:\n%s", text)
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	tr := New(Config{})
	fill(tr)
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   float64         `json:"ts"`
			Pid  int             `json:"pid"`
			Tid  uint64          `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, b.String())
	}
	// 5 instant events + 2 thread_name metadata rows (ctx 0 and 1).
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("traceEvents = %d, want 7", len(doc.TraceEvents))
	}
	var instants, metas int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "i":
			instants++
		case "M":
			metas++
		}
	}
	if instants != 5 || metas != 2 {
		t.Fatalf("instants=%d metas=%d", instants, metas)
	}
	// ts is virtual microseconds: the alloc.slab at 100 ns is 0.1 µs.
	for _, e := range doc.TraceEvents {
		if e.Name == "alloc.slab" && e.Ts != 0.1 {
			t.Fatalf("alloc.slab ts = %v, want 0.1", e.Ts)
		}
	}
}

func TestChromeExportEmptyIsValidJSON(t *testing.T) {
	tr := New(Config{})
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("empty chrome export invalid: %v\n%s", err, b.String())
	}
}

func TestStatsContextCap(t *testing.T) {
	tr := New(Config{})
	for c := uint64(1); c <= 40; c++ {
		for i := uint64(0); i < c; i++ { // context c emits c events
			tr.Emit(AllocSlab, sim.Time(c*100+i), c, i, "inode", 0, 600)
		}
	}
	s := tr.Stats()
	if len(s.Contexts) != 16 {
		t.Fatalf("contexts = %d, want capped at 16", len(s.Contexts))
	}
	// Busiest first: context 40 with 40 events.
	if s.Contexts[0].Ctx != 40 || s.Contexts[0].Total != 40 {
		t.Fatalf("top context = %+v", s.Contexts[0])
	}
}
